package extract

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"inductance101/internal/geom"
)

// h2AgainstDense checks the nested-basis operator against the dense
// partial-inductance matrix on random vectors.
func h2AgainstDense(t *testing.T, l *geom.Layout, segs []int, opt H2Options, tol float64, rng *rand.Rand, label string) *H2L {
	t.Helper()
	op := CompressInductanceH2(l, segs, GMDOptions{}, opt, DefaultCacheRef())
	dense := InductanceMatrix(l, segs, math.Inf(1), GMDOptions{}, DefaultCacheRef())
	n := len(segs)
	if op.Dim() != n {
		t.Fatalf("%s: dim %d, want %d", label, op.Dim(), n)
	}
	for trial := 0; trial < 3; trial++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := make([]float64, n)
		op.ApplyTo(got, x)
		var errN, refN float64
		for i := 0; i < n; i++ {
			var want float64
			for j := 0; j < n; j++ {
				want += dense.At(i, j) * x[j]
			}
			d := got[i] - want
			errN += d * d
			refN += want * want
		}
		if math.Sqrt(errN) > tol*math.Sqrt(refN) {
			t.Errorf("%s trial %d: matvec error %.3g of %.3g",
				label, trial, math.Sqrt(errN), math.Sqrt(refN))
		}
	}
	return op
}

// TestH2MatvecBuses is the nested-basis analogue of the flat property
// test on random parallel buses.
func TestH2MatvecBuses(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 5; trial++ {
		n := 20 + rng.Intn(60)
		pitch := (2 + 6*rng.Float64()) * 1e-6
		length := (200 + 600*rng.Float64()) * 1e-6
		l := makeBusLayout(n, length, 1e-6, pitch)
		segs := make([]int, n)
		for i := range segs {
			segs[i] = i
		}
		h2AgainstDense(t, l, segs, H2Options{}, 1e-6, rng, "bus")
	}
}

// TestH2MatvecGrid covers both routing directions; the cross-direction
// blocks never enter any basis or block and must stay exactly zero.
func TestH2MatvecGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	l, segs := gridLayout(9, 9, 300e-6, 1e-6, 8e-6)
	op := h2AgainstDense(t, l, segs, H2Options{}, 1e-6, rng, "grid")
	n := len(segs)
	x := make([]float64, n)
	for i := 0; i < 9; i++ { // first 9 are DirX
		x[i] = 1
	}
	y := make([]float64, n)
	op.ApplyTo(y, x)
	for i := 9; i < n; i++ {
		if y[i] != 0 {
			t.Fatalf("cross-direction coupling leaked: y[%d] = %g", i, y[i])
		}
	}
}

// TestH2SymmetryToRounding: the nested operator is algebraically
// symmetric — every coupling is applied with the same factors both ways
// — but the two probe directions associate the same products in
// different orders, so entries agree to rounding rather than
// bit-exactly (unlike the flat operator, see TestCompressedSymmetryExact).
func TestH2SymmetryToRounding(t *testing.T) {
	l := makeBusLayout(40, 400e-6, 1e-6, 4e-6)
	segs := make([]int, 40)
	for i := range segs {
		segs[i] = i
	}
	op := CompressInductanceH2(l, segs, GMDOptions{}, H2Options{}, DefaultCacheRef())
	n := op.Dim()
	ei := make([]float64, n)
	col := make([]float64, n)
	get := func(i, j int) float64 {
		ei[i] = 1
		op.ApplyTo(col, ei)
		ei[i] = 0
		return col[j]
	}
	for i := 0; i < n; i += 7 {
		for j := 0; j < n; j += 5 {
			a, b := get(i, j), get(j, i)
			if d := math.Abs(a - b); d > 1e-10*(math.Abs(a)+math.Abs(b))+1e-30 {
				t.Fatalf("L(%d,%d)=%v vs L(%d,%d)=%v: asymmetry %g", i, j, a, j, i, b, d)
			}
		}
	}
}

// TestH2DiagAndEachUpper: Diag returns exact self terms; EachUpper
// visits every upper pair once and reconstructs dense to tolerance.
func TestH2DiagAndEachUpper(t *testing.T) {
	l := makeBusLayout(30, 350e-6, 1e-6, 3e-6)
	segs := make([]int, 30)
	for i := range segs {
		segs[i] = i
	}
	op := CompressInductanceH2(l, segs, GMDOptions{}, H2Options{}, DefaultCacheRef())
	dense := InductanceMatrix(l, segs, math.Inf(1), GMDOptions{}, DefaultCacheRef())
	n := len(segs)
	for i := 0; i < n; i++ {
		if got, want := op.Diag(i), dense.At(i, i); got != want {
			t.Fatalf("Diag(%d) = %g, dense %g", i, got, want)
		}
	}
	seen := make(map[[2]int]float64)
	op.EachUpper(func(i, j int, v float64) {
		if i >= j {
			t.Fatalf("EachUpper visited non-strict pair (%d,%d)", i, j)
		}
		k := [2]int{i, j}
		if _, dup := seen[k]; dup {
			t.Fatalf("pair (%d,%d) visited twice", i, j)
		}
		seen[k] = v
	})
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v, ok := seen[[2]int{i, j}]
			if !ok {
				t.Fatalf("pair (%d,%d) never visited", i, j)
			}
			want := dense.At(i, j)
			if math.Abs(v-want) > 1e-6*(1e-12+math.Abs(want)) {
				t.Errorf("EachUpper(%d,%d) = %g, dense %g", i, j, v, want)
			}
		}
	}
}

// TestH2MaxRankFallback: with the basis rank capped at 1 the
// interpolative decompositions fail, and every affected coupling must
// re-route to exact dense blocks — accuracy survives, approximation is
// never silently degraded.
func TestH2MaxRankFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	n := 40
	l := makeBusLayout(n, 400e-6, 1e-6, 3e-6)
	segs := make([]int, n)
	for i := range segs {
		segs[i] = i
	}
	op := CompressInductanceH2(l, segs, GMDOptions{},
		H2Options{Tol: 1e-12, MaxRank: 1}, DefaultCacheRef())
	dense := InductanceMatrix(l, segs, math.Inf(1), GMDOptions{}, DefaultCacheRef())
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := make([]float64, n)
	op.ApplyTo(got, x)
	var errN, refN float64
	for i := 0; i < n; i++ {
		var want float64
		for j := 0; j < n; j++ {
			want += dense.At(i, j) * x[j]
		}
		d := got[i] - want
		errN += d * d
		refN += want * want
	}
	if math.Sqrt(errN) > 1e-6*math.Sqrt(refN) {
		t.Errorf("MaxRank fallback lost accuracy: %.3g of %.3g",
			math.Sqrt(errN), math.Sqrt(refN))
	}
}

// TestH2Stats: the nested operator must actually compress a large bus,
// the eval split must add up, and the per-level histogram must report
// both bases and couplings. The bus is deliberately big: below ~1000
// elements the fixed far-field sampling cost still rivals the dense
// triangle and the nested scheme has nothing to win.
func TestH2Stats(t *testing.T) {
	n := 1280
	l := makeBusLayout(n, 500e-6, 1e-6, 2.5e-6)
	segs := make([]int, n)
	for i := range segs {
		segs[i] = i
	}
	op := CompressInductanceH2(l, segs, GMDOptions{}, H2Options{}, DefaultCacheRef())
	st := op.Stats()
	if !st.Nested {
		t.Fatal("Nested flag not set")
	}
	if st.FarBlocks == 0 {
		t.Fatal("no coupling blocks on a 160-wire bus")
	}
	if st.StoredFloats >= st.DenseFloats {
		t.Fatalf("compressed storage %d >= dense %d", st.StoredFloats, st.DenseFloats)
	}
	if st.KernelEvals != st.NearKernelEvals+st.FarKernelEvals {
		t.Fatalf("eval split %d + %d != total %d",
			st.NearKernelEvals, st.FarKernelEvals, st.KernelEvals)
	}
	if st.KernelEvals >= st.DenseKernelEntries {
		t.Errorf("kernel evaluations %d not below dense upper triangle %d",
			st.KernelEvals, st.DenseKernelEntries)
	}
	if len(st.Levels) == 0 {
		t.Fatal("no per-level stats")
	}
	bases, coups := 0, 0
	for _, ls := range st.Levels {
		bases += ls.Bases
		coups += ls.FarBlocks
		if ls.FarBlocks > 0 && (ls.MinRank < 1 || ls.MaxRank < ls.MinRank) {
			t.Errorf("level %d rank range [%d,%d] malformed", ls.Level, ls.MinRank, ls.MaxRank)
		}
	}
	if bases == 0 {
		t.Fatal("per-level stats report no bases")
	}
	if coups != st.FarBlocks {
		t.Fatalf("per-level coupling sum %d != FarBlocks %d", coups, st.FarBlocks)
	}
}

// TestH2ParallelBuildDeterministic: the operator must be bit-identical
// at every worker count — same blocks, same bases, same matvec output.
func TestH2ParallelBuildDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	l, segs := gridLayout(12, 12, 400e-6, 1e-6, 6e-6)
	op1 := CompressInductanceH2(l, segs, GMDOptions{}, H2Options{Workers: 1}, DefaultCacheRef())
	op8 := CompressInductanceH2(l, segs, GMDOptions{}, H2Options{Workers: 8}, DefaultCacheRef())
	if s1, s8 := op1.Stats(), op8.Stats(); s1.StoredFloats != s8.StoredFloats ||
		s1.FarBlocks != s8.FarBlocks || s1.NearBlocks != s8.NearBlocks ||
		s1.KernelEvals != s8.KernelEvals {
		t.Fatalf("stats differ across worker counts:\n1: %+v\n8: %+v", s1, s8)
	}
	n := op1.Dim()
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y1 := make([]float64, n)
	y8 := make([]float64, n)
	op1.ApplyTo(y1, x)
	op8.ApplyTo(y8, x)
	for i := range y1 {
		if math.Float64bits(y1[i]) != math.Float64bits(y8[i]) {
			t.Fatalf("matvec differs at %d: %v vs %v", i, y1[i], y8[i])
		}
	}
}

// TestFlatParallelBuildDeterministic: same guarantee for the parallel
// flat-ACA build.
func TestFlatParallelBuildDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	l, segs := gridLayout(12, 12, 400e-6, 1e-6, 6e-6)
	op1 := CompressInductance(l, segs, GMDOptions{}, ACAOptions{Workers: 1}, DefaultCacheRef())
	op8 := CompressInductance(l, segs, GMDOptions{}, ACAOptions{Workers: 8}, DefaultCacheRef())
	if s1, s8 := op1.Stats(), op8.Stats(); s1.StoredFloats != s8.StoredFloats ||
		s1.FarBlocks != s8.FarBlocks || s1.NearBlocks != s8.NearBlocks ||
		s1.KernelEvals != s8.KernelEvals {
		t.Fatalf("stats differ across worker counts:\n1: %+v\n8: %+v", s1, s8)
	}
	n := op1.Dim()
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y1 := make([]float64, n)
	y8 := make([]float64, n)
	op1.ApplyTo(y1, x)
	op8.ApplyTo(y8, x)
	for i := range y1 {
		if math.Float64bits(y1[i]) != math.Float64bits(y8[i]) {
			t.Fatalf("matvec differs at %d: %v vs %v", i, y1[i], y8[i])
		}
	}
}

// TestH2ConcurrentBuildsSharedCache is the race-set target for the
// parallel operator build: several goroutines each build a nested
// operator with internal worker fan-out, all hammering the same
// geometry-keyed kernel cache.
func TestH2ConcurrentBuildsSharedCache(t *testing.T) {
	l, segs := gridLayout(10, 10, 350e-6, 1e-6, 5e-6)
	ref := PrivateCache()
	ops := make([]*H2L, 3)
	var wg sync.WaitGroup
	for g := range ops {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ops[g] = CompressInductanceH2(l, segs, GMDOptions{}, H2Options{Workers: 3}, ref)
		}(g)
	}
	wg.Wait()
	n := ops[0].Dim()
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	want := make([]float64, n)
	ops[0].ApplyTo(want, x)
	got := make([]float64, n)
	for g := 1; g < len(ops); g++ {
		ops[g].ApplyTo(got, x)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("concurrent build %d diverged at %d: %v vs %v", g, i, got[i], want[i])
			}
		}
	}
}

// TestRowID exercises the interpolative decomposition directly: exact
// reconstruction of a synthetic low-rank matrix, unit rows at the
// skeleton, and failure (not silent truncation) under a rank cap.
func TestRowID(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	m, s, r := 24, 17, 3
	a := make([]float64, m*r)
	bb := make([]float64, r*s)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range bb {
		bb[i] = rng.NormFloat64()
	}
	mat := make([]float64, m*s)
	for i := 0; i < m; i++ {
		for j := 0; j < s; j++ {
			v := 0.0
			for q := 0; q < r; q++ {
				v += a[i*r+q] * bb[q*s+j]
			}
			mat[i*s+j] = v
		}
	}
	pivots, u, ok := rowID(mat, m, s, 1e-12, 0)
	if !ok {
		t.Fatal("uncapped rowID failed")
	}
	k := len(pivots)
	if k < r {
		t.Fatalf("rank %d below true rank %d", k, r)
	}
	// Reconstruct: mat ≈ u * mat[pivots].
	var errN, refN float64
	for i := 0; i < m; i++ {
		for j := 0; j < s; j++ {
			v := 0.0
			for l, p := range pivots {
				v += u[i*k+l] * mat[p*s+j]
			}
			d := v - mat[i*s+j]
			errN += d * d
			refN += mat[i*s+j] * mat[i*s+j]
		}
	}
	if math.Sqrt(errN) > 1e-9*math.Sqrt(refN) {
		t.Fatalf("ID reconstruction error %.3g of %.3g", math.Sqrt(errN), math.Sqrt(refN))
	}
	for l, p := range pivots {
		for c := 0; c < k; c++ {
			want := 0.0
			if c == l {
				want = 1
			}
			if u[p*k+c] != want {
				t.Fatalf("skeleton row %d not a unit row", p)
			}
		}
	}
	if _, _, ok := rowID(mat, m, s, 1e-12, 1); ok {
		t.Fatal("rank-1 cap on a rank-3 matrix did not fail")
	}
}

// TestRowIDRejectsNoisePivots: at the default tolerance 1e-8 the
// squared-norm threshold sits at the rounding level of the downdated
// row norms, so a row whose residual is pure noise can look like a
// pivot. The ID must check the residual it actually holds and keep the
// true rank: every spurious pivot is a basis direction fitted to
// rounding noise, which the nested operator then amplifies in every
// matvec.
func TestRowIDRejectsNoisePivots(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const m, s, r = 60, 80, 3
	for trial := 0; trial < 50; trial++ {
		base := make([]float64, r*s)
		for i := range base {
			base[i] = rng.NormFloat64()
		}
		mat := make([]float64, m*s)
		for i := 0; i < m; i++ {
			scale := math.Pow(10, 3*rng.Float64())
			for q := 0; q < r; q++ {
				a := scale * rng.NormFloat64()
				for j := 0; j < s; j++ {
					mat[i*s+j] += a * base[q*s+j]
				}
			}
		}
		pivots, _, ok := rowID(mat, m, s, 1e-8, 0)
		if !ok || len(pivots) != r {
			t.Fatalf("trial %d: rank %d (ok=%v), want exactly %d", trial, len(pivots), ok, r)
		}
	}
}

// TestFieldSampleSpreadsEvenly: a node's far-field sample must reach the
// tail of its (and its ancestors') partner lists and must not alias
// with a periodic element order. Sampling 128 of 1000 elements laid out
// in period-8 groups (a bus meshed 4x2 per wire) has to cover the whole
// range and every position within the period.
func TestFieldSampleSpreadsEvenly(t *testing.T) {
	elems := make([]int, 1000)
	for i := range elems {
		elems[i] = i
	}
	root := &h2node{partners: [][]int{elems[600:]}}
	nd := &h2node{parent: root, partners: [][]int{elems[:600]}}
	b := &h2builder{opt: H2Options{Sample: 128}}
	got := b.fieldSample(nd)
	if len(got) != 128 {
		t.Fatalf("sampled %d elements, want 128", len(got))
	}
	var phase [8]bool
	maxIdx := 0
	for _, e := range got {
		phase[e%8] = true
		if e > maxIdx {
			maxIdx = e
		}
	}
	if maxIdx < 990 {
		t.Errorf("sample stops at element %d of 1000", maxIdx)
	}
	for p, seen := range phase {
		if !seen {
			t.Errorf("no sample at position %d of the period-8 layout", p)
		}
	}
	if all := b.fieldSample(&h2node{partners: [][]int{elems[:50]}}); len(all) != 50 {
		t.Errorf("short partner list: sampled %d of 50", len(all))
	}
}
