// Package fasthenry is a FastHenry-style frequency-dependent inductance
// and resistance extractor (Kamon, Tsuk & White, IEEE MTT 1994).
//
// Conductor segments and planes are lowered by internal/mesh into a
// uniform filament set (segments split across their cross-section,
// planes into overlapping X/Y filament grids) with branch impedance
// Zb = R + jω Lp (partial inductances between every filament pair).
// The dense oracle path LU-factors Zb and reduces the nodal admittance
// Y = A Zb^{-1} A^T to the port; the iterative paths compress Lp and,
// like FastHenry, drive the port once per frequency: one preconditioned
// GMRES on the augmented branch/node system (port.go). Skin and
// proximity effects emerge from the current redistribution among
// filaments, exactly as in FastHenry.
//
// Substitution note (see DESIGN.md §5): FastHenry accelerates the solve
// with a multipole expansion; this package compresses Lp with ACA or
// nested interpolative bases instead (DESIGN.md §10, §12), and keeps
// the direct dense complex LU as the oracle and the small-problem
// default. The choice changes run time, never extracted values beyond
// the documented 1e-6 tolerance.
package fasthenry

import (
	"fmt"
	"math"
	"sync"

	"inductance101/internal/extract"
	"inductance101/internal/geom"
	"inductance101/internal/matrix"
	"inductance101/internal/mesh"
	"inductance101/internal/sweep"
)

// Port defines the two terminals the impedance is extracted between.
type Port struct {
	Plus, Minus string
}

// Options controls filament discretization.
type Options struct {
	// NW, NT force the per-segment filament counts across width and
	// thickness. Zero means automatic: enough filaments that each is
	// no wider than the skin depth at the extraction frequency, capped
	// by MaxPerSide.
	NW, NT int
	// MaxPerSide caps automatic discretization (default 5).
	MaxPerSide int
	// Rho is the conductor resistivity used for skin-depth sizing
	// (default copper).
	Rho float64
	// PlaneNW is the mesh grid density of conductor planes: the number
	// of grid cells along each plane axis (0 = mesh.DefaultPlaneNW;
	// see mesh.Options.PlaneNW for the valid range, which NewSolver
	// rejects fail-fast).
	PlaneNW int
	// Mode selects the solve path (dense oracle, matrix-free GMRES, or
	// auto by filament count). The zero value is ModeAuto.
	Mode SolveMode
	// ACATol is the relative tolerance of the compressed operator's
	// low-rank far field on the iterative paths — the ACA factor
	// tolerance in ModeIterative, the interpolative-basis tolerance in
	// ModeNested (default 1e-8 for both).
	ACATol float64
	// Cache names the kernel cache the solver's partial-inductance
	// entries go through. The zero value is the process-default shared
	// cache (honoring the deprecated extract.SetKernelCache switch);
	// sessions pass their own extract.PrivateCache() or extract.NoCache().
	Cache extract.CacheRef
	// Workers caps the sweep fan-out and dense-kernel goroutines.
	// 0 = process default (matrix.Workers), 1 = fully serial.
	Workers int
	// SweepMode selects exact per-point solves, the adaptive
	// anchor-and-fit engine, or auto (adaptive at sweep.AutoThreshold
	// requested points). The zero value is sweep.ModeAuto.
	SweepMode sweep.Mode
	// SweepTol is the adaptive engine's relative interpolation
	// tolerance (0 = sweep.DefaultTol).
	SweepTol float64
	// RecycleDim caps the Krylov recycling space the adaptive anchor
	// solves carry between frequencies on the iterative paths.
	// 0 = matrix.DefaultRecycleDim; negative disables recycling
	// (warm starts only).
	RecycleDim int
}

// meshOptions maps the solver options onto the lowering stage's.
func (o Options) meshOptions() mesh.Options {
	return mesh.Options{
		NW: o.NW, NT: o.NT, MaxPerSide: o.MaxPerSide,
		Rho: o.Rho, PlaneNW: o.PlaneNW,
	}
}

// Solver holds the discretized problem for repeated solves across a
// frequency sweep. The partial-inductance matrix is materialized
// lazily: the dense oracle path assembles the full nf x nf matrix on
// first use, the iterative path a hierarchically compressed operator —
// whichever the solve mode needs, never both by default.
type Solver struct {
	fils   []mesh.Filament
	entry  func(i, j int) float64 // filament partial-inductance kernel
	nNodes int
	plus   int // node index of port plus (minus is the reference)
	minus  int

	lpOnce sync.Once
	lp     *matrix.Dense // dense partial inductance over filaments (lazy)

	mode    SolveMode
	acaTol  float64
	cache   extract.CacheRef
	workers int

	sweepMode  sweep.Mode
	sweepTol   float64
	recycleDim int

	opOnce sync.Once
	op     extract.LOperator // compressed partial inductance (lazy)

	portOnce sync.Once
	port     *portSystem // port solve structure over op (lazy)
	portErr  error
}

// NewSolver lowers the given segments of the layout — plus every
// conductor plane and via it contains — through internal/mesh at a
// reference frequency fRef (which sizes the filament grids), merges the
// node pairs in shorts, and prepares the partial-inductance problem.
func NewSolver(l *geom.Layout, segs []int, port Port, shorts [][2]string, fRef float64, opt Options) (*Solver, error) {
	m, err := mesh.Build(l, segs, shorts, fRef, opt.meshOptions())
	if err != nil {
		return nil, fmt.Errorf("fasthenry: %w", err)
	}
	plus, minus := m.Node(port.Plus), m.Node(port.Minus)
	if plus == minus {
		return nil, fmt.Errorf("fasthenry: port terminals are shorted together")
	}

	return &Solver{
		fils:   m.Filaments,
		entry:  extract.FilamentEntry(m.Filaments, opt.Cache),
		nNodes: m.NumNodes(), plus: plus, minus: minus,
		mode: opt.Mode, acaTol: opt.ACATol,
		cache: opt.Cache, workers: opt.Workers,
		sweepMode: opt.SweepMode, sweepTol: opt.SweepTol,
		recycleDim: opt.RecycleDim,
	}, nil
}

// lpEntry returns the partial inductance between filaments i and j
// (symmetric in its arguments): extract.FilamentEntry over the lowered
// mesh, routed through the solver's kernel cache.
func (s *Solver) lpEntry(i, j int) float64 {
	if s.entry == nil {
		// Solvers assembled literally in tests bypass NewSolver; build
		// the entry function over the bare filament slice on first use.
		s.entry = extract.FilamentEntry(s.fils, s.cache)
	}
	return s.entry(i, j)
}

// denseLP materializes (once) the dense partial-inductance matrix over
// filaments — the exact oracle the dense solve path factorizes and the
// compressed operator is verified against.
func (s *Solver) denseLP() *matrix.Dense {
	s.lpOnce.Do(func() {
		nf := len(s.fils)
		lp := matrix.NewDense(nf, nf)
		for i := 0; i < nf; i++ {
			lp.Set(i, i, s.lpEntry(i, i))
			for j := i + 1; j < nf; j++ {
				if s.fils[i].Dir != s.fils[j].Dir {
					continue
				}
				m := s.lpEntry(i, j)
				lp.Set(i, j, m)
				lp.Set(j, i, m)
			}
		}
		s.lp = lp
	})
	return s.lp
}

// NumFilaments reports the discretization size.
func (s *Solver) NumFilaments() int { return len(s.fils) }

// nodeRow maps a node id to its reduced nodal index with the port
// minus node removed as the reference (-1 for the reference itself).
func (s *Solver) nodeRow(n int) int {
	if n == s.minus {
		return -1
	}
	if n > s.minus {
		return n - 1
	}
	return n
}

// Impedance returns the complex port impedance at frequency f (Hz),
// using the configured solve mode (see Options.Mode): the dense complex
// LU oracle, or matrix-free GMRES through the hierarchically
// compressed partial-inductance operator.
func (s *Solver) Impedance(f float64) (complex128, error) {
	if s.iterativeMode() {
		z, _, err := s.impedancePort(f, nil)
		return z, err
	}
	return s.impedanceDense(f)
}

// impedanceDense is the exact direct path: dense complex LU of the
// branch impedance matrix at this frequency.
func (s *Solver) impedanceDense(f float64) (complex128, error) {
	omega := 2 * math.Pi * f
	nf := len(s.fils)
	lp := s.denseLP()
	zb := matrix.NewCDense(nf, nf)
	for i := 0; i < nf; i++ {
		for j := 0; j < nf; j++ {
			re := 0.0
			if i == j {
				re = s.fils[i].R
			}
			zb.Set(i, j, complex(re, omega*lp.At(i, j)))
		}
	}
	lu, err := matrix.FactorComplexLU(zb)
	if err != nil {
		return 0, fmt.Errorf("fasthenry: branch impedance singular: %w", err)
	}

	// Nodal admittance with the port minus node as reference:
	// Y = A Zb^{-1} A^T with A the reduced incidence matrix.
	nn := s.nNodes - 1
	// X[:, k] = Zb^{-1} * (A^T e_k) would need nn solves; instead solve
	// Zb^{-1} once per filament-incidence column: W = Zb^{-1} A^T is
	// nf x nn. Assemble A^T columns (sparse: each filament touches two
	// nodes), then Y = A W.
	y := matrix.NewCDense(nn, nn)
	col := make([]complex128, nf)
	for k := 0; k < nn; k++ {
		s.incidenceColumn(col, k)
		w, err := lu.Solve(col)
		if err != nil {
			return 0, err
		}
		s.scatterAdmittance(y, k, w)
	}
	return s.portSolve(y)
}

// incidenceColumn fills col with the A^T e_k column: +1/-1 at the
// filaments whose end nodes map to reduced index k.
func (s *Solver) incidenceColumn(col []complex128, k int) {
	for i := range col {
		col[i] = 0
	}
	for fi := range s.fils {
		f := &s.fils[fi]
		if s.nodeRow(f.NodeA) == k {
			col[fi] += 1
		}
		if s.nodeRow(f.NodeB) == k {
			col[fi] -= 1
		}
	}
}

// scatterAdmittance accumulates column k of Y = A W from the branch
// current solution w.
func (s *Solver) scatterAdmittance(y *matrix.CDense, k int, w []complex128) {
	for fi := range s.fils {
		f := &s.fils[fi]
		if ra := s.nodeRow(f.NodeA); ra >= 0 {
			y.Add(ra, k, w[fi])
		}
		if rb := s.nodeRow(f.NodeB); rb >= 0 {
			y.Add(rb, k, -w[fi])
		}
	}
}

// portSolve injects 1 A into the port plus node and solves the reduced
// nodal system for the port voltage (= impedance).
func (s *Solver) portSolve(y *matrix.CDense) (complex128, error) {
	nn := y.Rows()
	rhs := make([]complex128, nn)
	pr := s.nodeRow(s.plus)
	if pr < 0 {
		return 0, fmt.Errorf("fasthenry: port plus equals reference")
	}
	rhs[pr] = 1
	v, err := matrix.SolveComplex(y, rhs)
	if err != nil {
		return 0, fmt.Errorf("fasthenry: port network disconnected: %w", err)
	}
	return v[pr], nil
}

// RL decomposes an impedance into series resistance and inductance at
// frequency f: R = Re Z, L = Im Z / (2 pi f).
func RL(z complex128, f float64) (r, l float64) {
	return real(z), imag(z) / (2 * math.Pi * f)
}

// Point is one frequency sample of an extraction sweep.
type Point struct {
	Freq float64
	Z    complex128
	R    float64
	L    float64
	// Iters is the GMRES iteration count of the point's port solve
	// (zero on the dense path and on interpolated points).
	Iters int
	// Interp marks a point filled by the adaptive sweep's rational
	// interpolant instead of an exact solve.
	Interp bool
}

// Sweep extracts the port impedance at each frequency. Points are
// independent complex solves, so the sweep fans out across workers
// (Options.Workers, or matrix.SetWorkers when unset); results are
// identical to a serial loop, in ascending frequency order.
func (s *Solver) Sweep(freqs []float64) ([]Point, error) {
	w := s.workers
	if w <= 0 {
		w = matrix.Workers()
	}
	return s.SweepParallel(freqs, w)
}

// LogSpace returns n logarithmically spaced frequencies in [f0, f1].
// Degenerate requests are well defined: n <= 1 or a collapsed band
// (f0 == f1) yield the single-point slice [f0] rather than repeated
// points or NaN spacing from the zero-width ratio.
func LogSpace(f0, f1 float64, n int) []float64 {
	if n <= 1 || f0 == f1 {
		return []float64{f0}
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = f0 * math.Pow(f1/f0, float64(i)/float64(n-1))
	}
	return out
}

// DCResistance returns the zero-frequency limit of the port resistance,
// from a purely resistive solve (useful as a sanity anchor: the
// extraction's R(f) must approach this as f -> 0).
func (s *Solver) DCResistance() (float64, error) {
	z, err := s.Impedance(1) // 1 Hz: inductive part utterly negligible
	if err != nil {
		return 0, err
	}
	return real(z), nil
}
