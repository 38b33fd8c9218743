package fasthenry

import (
	"math"
	"testing"

	"inductance101/internal/extract"
	"inductance101/internal/geom"
	"inductance101/internal/grid"
)

// microstripOverPlane builds a microstrip-over-plane layout big enough
// for the compressed operators to be meaningful: a signal and its far
// return over a PlaneNW=16 plane lower to ~550 filaments, past the
// dense/iterative auto threshold.
func microstripOverPlane(t *testing.T) (*geom.Layout, []int, Port, [][2]string) {
	t.Helper()
	lay := geom.NewLayout(grid.StandardLayers())
	segs := []int{
		lay.AddSegment(geom.Segment{
			Layer: 1, Dir: geom.DirX, X0: 0, Y0: 0,
			Length: 1500e-6, Width: 2e-6,
			Net: "sig", NodeA: "s0", NodeB: "s1",
		}),
		lay.AddSegment(geom.Segment{
			Layer: 1, Dir: geom.DirX, X0: 0, Y0: 80e-6,
			Length: 1500e-6, Width: 2e-6,
			Net: "ret", NodeA: "r0", NodeB: "r1",
		}),
	}
	lay.AddPlane(geom.Plane{
		Layer: 0, X0: 0, Y0: -24e-6, X1: 1500e-6, Y1: 24e-6,
		Net: "ret", NodeLeft: "p0", NodeRight: "p1",
	})
	if err := lay.Validate(); err != nil {
		t.Fatal(err)
	}
	return lay, segs, Port{Plus: "s0", Minus: "r0"},
		[][2]string{{"s1", "r1"}, {"p1", "s1"}, {"p0", "r0"}}
}

// TestPlaneThreeModeAgreement is the acceptance gate of the shared
// lowering stage: all three solve paths — dense LU, flat-ACA GMRES and
// the nested-basis operator — consume the same mesh filaments for a
// microstrip over a conductor plane and must agree pairwise to 1e-6
// relative on the port impedance.
func TestPlaneThreeModeAgreement(t *testing.T) {
	lay, segs, port, shorts := microstripOverPlane(t)
	const f = 1e9
	modes := []struct {
		name string
		mode SolveMode
	}{
		{"dense", ModeDense},
		{"iterative", ModeIterative},
		{"nested", ModeNested},
	}
	z := make([]complex128, len(modes))
	for i, m := range modes {
		s, err := NewSolver(lay, segs, port, shorts, f, Options{
			MaxPerSide: 2, PlaneNW: 16, Mode: m.mode,
			Cache: extract.PrivateCache(), Workers: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if i == 0 && s.NumFilaments() < 512 {
			t.Fatalf("only %d filaments; the structure no longer exercises the compressed paths", s.NumFilaments())
		}
		zi, err := s.Impedance(f)
		if err != nil {
			t.Fatalf("%s impedance: %v", m.name, err)
		}
		z[i] = zi
	}
	for i := 0; i < len(modes); i++ {
		for j := i + 1; j < len(modes); j++ {
			rel := cmplxAbs(z[i]-z[j]) / cmplxAbs(z[i])
			if rel > 1e-6 {
				t.Errorf("%s vs %s: Z %v vs %v (rel %.3g > 1e-6)",
					modes[i].name, modes[j].name, z[i], z[j], rel)
			}
		}
	}
	r, l := RL(z[0], f)
	if r <= 0 || l <= 0 {
		t.Errorf("non-physical plane extraction: R=%g L=%g", r, l)
	}
}

func cmplxAbs(z complex128) float64 { return math.Hypot(real(z), imag(z)) }

// TestPlaneSolverDeterministic re-extracts the plane structure on the
// iterative path at different worker counts: the mesh lowering and the
// clustered operator are both deterministic, so the impedances must be
// bit-identical.
func TestPlaneSolverDeterministic(t *testing.T) {
	lay, segs, port, shorts := microstripOverPlane(t)
	const f = 2e9
	solve := func(workers int) complex128 {
		s, err := NewSolver(lay, segs, port, shorts, f, Options{
			MaxPerSide: 2, PlaneNW: 12, Mode: ModeIterative,
			Cache: extract.PrivateCache(), Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		z, err := s.Impedance(f)
		if err != nil {
			t.Fatal(err)
		}
		return z
	}
	want := solve(1)
	for _, w := range []int{2, 4} {
		got := solve(w)
		if math.Float64bits(real(got)) != math.Float64bits(real(want)) ||
			math.Float64bits(imag(got)) != math.Float64bits(imag(want)) {
			t.Errorf("workers=%d: Z %v differs from serial %v", w, got, want)
		}
	}
}

// TestPlanePortDrivenMatchesDense pins the port-driven iterative solve
// against the dense oracle on the structure it exists for: both
// compressed modes reproduce the dense impedance of the microstrip over
// a plane to 1e-6 relative at every density and frequency.
func TestPlanePortDrivenMatchesDense(t *testing.T) {
	lay, segs, port, shorts := microstripOverPlane(t)
	freqs := LogSpace(1e8, 2e10, 3)
	for _, nw := range []int{8, 16, 24} {
		sweep := func(mode SolveMode) []Point {
			s, err := NewSolver(lay, segs, port, shorts, 2e10, Options{
				MaxPerSide: 2, PlaneNW: nw, Mode: mode,
				Cache: extract.PrivateCache(), Workers: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			pts, err := s.SweepParallel(freqs, 2)
			if err != nil {
				t.Fatalf("nw=%d %v: %v", nw, mode, err)
			}
			return pts
		}
		dense := sweep(ModeDense)
		for _, mode := range []SolveMode{ModeIterative, ModeNested} {
			for i, p := range sweep(mode) {
				if d := relDiff(p.Z, dense[i].Z); d > iterDenseTol {
					t.Errorf("nw=%d %v at %g Hz: |Z-Zd|/|Zd| = %.3g > %g", nw, mode, freqs[i], d, iterDenseTol)
				}
			}
		}
	}
}

// TestPlanePortSolveItersBelowNodeCount guards the mechanism: the
// iterative paths drive the port with one GMRES per frequency point, so
// on a plane (hundreds of mesh nodes) a point's iteration count stays
// below the reduced node count. A regression to one solve per node
// spends at least one iteration per node and fails here.
func TestPlanePortSolveItersBelowNodeCount(t *testing.T) {
	lay, segs, port, shorts := microstripOverPlane(t)
	s, err := NewSolver(lay, segs, port, shorts, 2e10, Options{
		MaxPerSide: 2, PlaneNW: 16, Mode: ModeIterative,
		Cache: extract.PrivateCache(), Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	reduced := s.nNodes - 1
	pts, err := s.SweepParallel(LogSpace(1e8, 2e10, 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Iters <= 0 || p.Iters >= reduced {
			t.Errorf("%g Hz: %d GMRES iterations, want 1..%d (below the %d reduced nodes)",
				p.Freq, p.Iters, reduced-1, reduced)
		}
	}
}
