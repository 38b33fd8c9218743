package fasthenry

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"inductance101/internal/extract"
	"inductance101/internal/geom"
)

// iterDenseTol is the documented relative tolerance between the
// iterative and dense port impedances (DESIGN.md §10): ACA block
// tolerance 1e-8 and GMRES residual 1e-10 keep the port-level mismatch
// well under 1e-6.
const iterDenseTol = 1e-6

// busLayout builds an nWires parallel-wire bus (wire 0 is the signal,
// the rest are returns shorted at both ends), the structure the
// iterative path is designed for.
func busLayout(nWires int, length, width, pitch float64) (*geom.Layout, []int, Port, [][2]string) {
	l := geom.NewLayout([]geom.Layer{
		{Name: "M5", Z: 4e-6, Thickness: 1e-6, SheetRho: 0.022, HBelow: 1e-6},
	})
	var segs []int
	names := func(i int) (string, string) {
		if i == 0 {
			return "sig0", "sig1"
		}
		return "g" + string(rune('a'+i)) + "0", "g" + string(rune('a'+i)) + "1"
	}
	for i := 0; i < nWires; i++ {
		a, b := names(i)
		segs = append(segs, l.AddSegment(geom.Segment{
			Layer: 0, Dir: geom.DirX, X0: 0, Y0: float64(i) * pitch,
			Length: length, Width: width, Net: "n", NodeA: a, NodeB: b,
		}))
	}
	var shorts [][2]string
	prevA, prevB := "", ""
	for i := 1; i < nWires; i++ {
		a, b := names(i)
		if prevA != "" {
			shorts = append(shorts, [2]string{prevA, a}, [2]string{prevB, b})
		}
		prevA, prevB = a, b
	}
	// Receiver end: signal shorted to the return bundle.
	ga, _ := names(1)
	shorts = append(shorts, [2]string{"sig1", gbOf(1)})
	return l, segs, Port{Plus: "sig0", Minus: ga}, shorts
}

func gbOf(i int) string { return "g" + string(rune('a'+i)) + "1" }

func relDiff(a, b complex128) float64 {
	d := cmplx.Abs(a - b)
	m := cmplx.Abs(b)
	if m == 0 {
		return d
	}
	return d / m
}

// TestIterativeMatchesDense verifies the tentpole acceptance criterion
// on representative structures: the matrix-free GMRES path reproduces
// the dense oracle's port impedance within the documented tolerance.
func TestIterativeMatchesDense(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*geom.Layout, []int, Port, [][2]string)
		fRef  float64
		opt   Options
	}{
		{"signal-over-return", func() (*geom.Layout, []int, Port, [][2]string) {
			return signalOverReturn(1500e-6, 6e-6, 15e-6)
		}, 10e9, Options{MaxPerSide: 4}},
		{"bus8", func() (*geom.Layout, []int, Port, [][2]string) {
			return busLayout(8, 800e-6, 2e-6, 6e-6)
		}, 20e9, Options{NW: 3, NT: 2}},
		{"bus3-fine", func() (*geom.Layout, []int, Port, [][2]string) {
			return busLayout(3, 400e-6, 4e-6, 10e-6)
		}, 20e9, Options{NW: 4, NT: 3}},
	}
	freqs := []float64{1e8, 1e9, 5e9, 2e10}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, segs, port, shorts := tc.build()
			denseOpt, iterOpt := tc.opt, tc.opt
			denseOpt.Mode, iterOpt.Mode = ModeDense, ModeIterative
			dense, err := NewSolver(l, segs, port, shorts, tc.fRef, denseOpt)
			if err != nil {
				t.Fatal(err)
			}
			iter, err := NewSolver(l, segs, port, shorts, tc.fRef, iterOpt)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range freqs {
				zd, err := dense.Impedance(f)
				if err != nil {
					t.Fatalf("dense at %g: %v", f, err)
				}
				zi, it, err := iter.impedancePort(f, nil)
				if err != nil {
					t.Fatalf("iterative at %g: %v", f, err)
				}
				if it <= 0 {
					t.Fatalf("no GMRES iterations reported at %g Hz", f)
				}
				if d := relDiff(zi, zd); d > iterDenseTol {
					t.Errorf("%s at %g Hz: |Zi-Zd|/|Zd| = %.3g > %g (Zi=%v Zd=%v)",
						tc.name, f, d, iterDenseTol, zi, zd)
				}
			}
		})
	}
}

// TestIterativeSweepWarmStarts checks the chunked warm-started parallel
// sweep end to end: values match the dense sweep, iteration counts are
// recorded, and warm-started points converge in no more iterations than
// a cold solve needs.
func TestIterativeSweepWarmStarts(t *testing.T) {
	l, segs, port, shorts := busLayout(6, 600e-6, 2e-6, 6e-6)
	mk := func(mode SolveMode) *Solver {
		s, err := NewSolver(l, segs, port, shorts, 20e9, Options{NW: 3, NT: 2, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	freqs := LogSpace(1e8, 2e10, 9)
	densePts, err := mk(ModeDense).SweepParallel(freqs, 3)
	if err != nil {
		t.Fatal(err)
	}
	iter := mk(ModeIterative)
	iterPts, err := iter.SweepParallel(freqs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range freqs {
		if iterPts[i].Iters <= 0 {
			t.Errorf("point %d: no iteration count recorded", i)
		}
		if d := relDiff(iterPts[i].Z, densePts[i].Z); d > iterDenseTol {
			t.Errorf("point %d (%g Hz): iterative/dense mismatch %.3g", i, freqs[i], d)
		}
	}
	// A warm-started second point must not be harder than its own cold
	// solve (chunk of 9 points over 3 workers => points 1,2 warm-started).
	_, cold, err := iter.impedancePort(freqs[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	if iterPts[1].Iters > cold {
		t.Errorf("warm-started point used %d iterations, cold solve %d", iterPts[1].Iters, cold)
	}
}

// TestIterativeSweepSharedOperatorParallel hammers one solver from many
// goroutines (the -race target): the compressed operator and its
// sync.Once build must be safe to share across sweep workers.
func TestIterativeSweepSharedOperatorParallel(t *testing.T) {
	l, segs, port, shorts := busLayout(5, 500e-6, 2e-6, 6e-6)
	s, err := NewSolver(l, segs, port, shorts, 20e9, Options{NW: 2, NT: 2, Mode: ModeIterative})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := s.SweepParallel(LogSpace(1e8, 1e10, 8), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].R < pts[i-1].R*(1-1e-9) || pts[i].L > pts[i-1].L*(1+1e-9) {
			t.Errorf("non-monotone R/L at point %d: R %g->%g, L %g->%g",
				i, pts[i-1].R, pts[i].R, pts[i-1].L, pts[i].L)
		}
	}
}

// TestCompressedOperatorMatvecProperty is the satellite property test:
// on randomized buses and grids, the ACA-compressed operator's matvec
// agrees with the dense lp matvec to tolerance, and the implied L stays
// exactly symmetric.
func TestCompressedOperatorMatvecProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		nW := 3 + rng.Intn(6)
		length := (300 + 400*rng.Float64()) * 1e-6
		width := (1 + 3*rng.Float64()) * 1e-6
		pitch := width * (2 + 3*rng.Float64())
		l, segs, port, shorts := busLayout(nW, length, width, pitch)
		s, err := NewSolver(l, segs, port, shorts, 20e9, Options{NW: 1 + rng.Intn(3), NT: 1 + rng.Intn(2)})
		if err != nil {
			t.Fatal(err)
		}
		nf := s.NumFilaments()
		op := s.compressedOp()
		if op.Dim() != nf {
			t.Fatalf("operator dim %d, want %d", op.Dim(), nf)
		}
		lp := s.denseLP()
		x := make([]float64, nf)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := make([]float64, nf)
		op.ApplyTo(got, x)
		want := make([]float64, nf)
		var ref float64
		for i := 0; i < nf; i++ {
			var sum float64
			for j := 0; j < nf; j++ {
				sum += lp.At(i, j) * x[j]
			}
			want[i] = sum
			ref += sum * sum
		}
		ref = math.Sqrt(ref)
		var errNorm float64
		for i := range got {
			d := got[i] - want[i]
			errNorm += d * d
		}
		errNorm = math.Sqrt(errNorm)
		if errNorm > 1e-6*ref {
			t.Errorf("trial %d (nf=%d): matvec error %.3g of %.3g", trial, nf, errNorm, ref)
		}
		// Exact symmetry: <e_i, L e_j> must bit-equal <e_j, L e_i>.
		ei := make([]float64, nf)
		col := make([]float64, nf)
		for rep := 0; rep < 8; rep++ {
			i, j := rng.Intn(nf), rng.Intn(nf)
			ei[i] = 1
			op.ApplyTo(col, ei)
			lij := col[j]
			ei[i] = 0
			ei[j] = 1
			op.ApplyTo(col, ei)
			lji := col[i]
			ei[j] = 0
			if math.Float64bits(lij) != math.Float64bits(lji) {
				t.Fatalf("trial %d: L(%d,%d)=%v != L(%d,%d)=%v", trial, i, j, lij, j, i, lji)
			}
		}
	}
}

// TestCompressedOperatorPartitionPinned pins the block partition both
// compressed operators share (extract's partition stage): block counts,
// ranks, kernel-evaluation counts and storage on the benchmark loop bus
// must not move at any worker count, and the two operators' diagonal
// blocks must be bit-identical — one partition, one near-field fill.
// The values match the rows of BENCH_fasthenry.json.
func TestCompressedOperatorPartitionPinned(t *testing.T) {
	// (FarBlocks, MaxRank, NearKernelEvals, FarKernelEvals,
	// StoredFloats, DiagBlocks, NearBlocks)
	type pinned [7]int
	cases := []struct {
		wires             int
		iterative, nested pinned
	}{
		{36, pinned{7, 9, 26064, 4968, 36072, 8, 16}, pinned{7, 7, 26064, 32382, 33893, 8, 16}},
		{98, pinned{65, 8, 88679, 65549, 148144, 32, 131}, pinned{105, 10, 62215, 167938, 91435, 32, 87}},
		{256, pinned{152, 9, 224256, 229440, 454208, 64, 186}, pinned{213, 11, 161792, 426840, 244183, 64, 125}},
	}
	for _, tc := range cases {
		l, segs, port, shorts := loopBus(tc.wires)
		for _, workers := range []int{1, 2} {
			var diags [][]extract.DiagBlock
			for _, m := range []struct {
				mode SolveMode
				want pinned
			}{{ModeIterative, tc.iterative}, {ModeNested, tc.nested}} {
				s, err := NewSolver(l, segs, port, shorts, 2e10,
					Options{NW: 4, NT: 2, Mode: m.mode, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				st := s.OperatorStats()
				got := pinned{st.FarBlocks, st.MaxRank, st.NearKernelEvals, st.FarKernelEvals,
					st.StoredFloats, st.DiagBlocks, st.NearBlocks}
				if got != m.want {
					t.Errorf("%d wires, %v, %d workers: stats %v, want %v",
						tc.wires, m.mode, workers, got, m.want)
				}
				diags = append(diags, s.compressedOp().DiagBlocks())
			}
			if !diagBlocksIdentical(diags[0], diags[1]) {
				t.Errorf("%d wires, %d workers: flat and nested diagonal blocks differ", tc.wires, workers)
			}
		}
	}
}

func diagBlocksIdentical(a, b []extract.DiagBlock) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if len(a[k].Idx) != len(b[k].Idx) || len(a[k].V) != len(b[k].V) {
			return false
		}
		for i := range a[k].Idx {
			if a[k].Idx[i] != b[k].Idx[i] {
				return false
			}
		}
		for i := range a[k].V {
			if math.Float64bits(a[k].V[i]) != math.Float64bits(b[k].V[i]) {
				return false
			}
		}
	}
	return true
}

// TestAutoModeThreshold pins the auto-mode policy: small problems stay
// on the dense oracle (golden CLI outputs depend on it), large ones
// switch to the iterative path.
func TestAutoModeThreshold(t *testing.T) {
	l, segs, port, shorts := signalOverReturn(1000e-6, 2e-6, 6e-6)
	s, err := NewSolver(l, segs, port, shorts, 1e9, Options{NW: 1, NT: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumFilaments() >= AutoIterativeThreshold {
		t.Fatalf("test premise broken: %d filaments", s.NumFilaments())
	}
	if got := s.SolveModeInUse(); got != ModeDense {
		t.Errorf("auto mode on %d filaments resolved to %v, want dense", s.NumFilaments(), got)
	}
	s, err = NewSolver(l, segs, port, shorts, 1e9, Options{NW: 1, NT: 1, Mode: ModeIterative})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.SolveModeInUse(); got != ModeIterative {
		t.Errorf("explicit iterative resolved to %v", got)
	}
}

func TestParseSolveMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SolveMode
		ok   bool
	}{
		{"auto", ModeAuto, true},
		{"dense", ModeDense, true},
		{"iterative", ModeIterative, true},
		{"nested", ModeNested, true},
		{"gmres", ModeAuto, false},
		{"", ModeAuto, false},
	} {
		got, err := ParseSolveMode(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseSolveMode(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
		if tc.ok && got.String() != tc.in {
			t.Errorf("String round-trip: %v -> %q", got, got.String())
		}
	}
}

func TestLogSpaceDegenerate(t *testing.T) {
	for _, tc := range []struct {
		f0, f1 float64
		n      int
	}{
		{1e9, 1e10, 1},
		{1e9, 1e10, 0},
		{1e9, 1e10, -3},
		{5e9, 5e9, 7},
		{5e9, 5e9, 1},
	} {
		got := LogSpace(tc.f0, tc.f1, tc.n)
		if len(got) != 1 || got[0] != tc.f0 {
			t.Errorf("LogSpace(%g, %g, %d) = %v, want [%g]", tc.f0, tc.f1, tc.n, got, tc.f0)
		}
	}
	// The regular path is unchanged: endpoints exact, strictly rising.
	got := LogSpace(1e8, 1e10, 5)
	if len(got) != 5 || got[0] != 1e8 || got[4] != 1e10 {
		t.Fatalf("LogSpace(1e8,1e10,5) = %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("not strictly increasing: %v", got)
		}
	}
}
