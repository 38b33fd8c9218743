package fasthenry

import (
	"fmt"

	"inductance101/internal/extract"
	"inductance101/internal/matrix"
	"inductance101/internal/mesh"
)

// Matrix-free iterative extraction path.
//
// The dense path assembles the nf x nf branch impedance matrix
// Zb = R + jω Lp and LU-factors it at every frequency point: O(nf²)
// memory and O(nf³) per point, which caps filament refinement well
// below skin-depth-accurate discretizations. The iterative path never
// forms Zb. Lp becomes a hierarchically compressed operator
// (extract.CompressedL): filaments are clustered through
// mesh.ClusterFilaments, near blocks stay exact through the kernel
// cache, and well-separated blocks are ACA low-rank factors, so one
// matvec is near-linear in nf. The port is then driven once per
// frequency point, as in FastHenry: one restarted GMRES on the
// augmented branch/node system, right-preconditioned by the
// per-cluster R + jω L_self blocks and their sparse nodal Schur
// complement (port.go), and frequency sweeps warm-start every point
// with the previous point's branch currents and node voltages.

// SolveMode selects how Solver.Impedance solves the branch system.
type SolveMode int

const (
	// ModeAuto picks the dense oracle below AutoIterativeThreshold
	// filaments and the iterative path at or above it.
	ModeAuto SolveMode = iota
	// ModeDense forces the dense complex-LU oracle.
	ModeDense
	// ModeIterative forces matrix-free GMRES through the flat-ACA
	// compressed operator.
	ModeIterative
	// ModeNested forces matrix-free GMRES through the nested-basis
	// (H²) compressed operator — same solves, an operator whose build
	// and matvec stay near-linear where the flat factors flatten out.
	ModeNested
)

// AutoIterativeThreshold is the filament count at which ModeAuto
// switches from the dense oracle to the iterative path. Below it the
// dense LU is fast enough that operator construction would dominate.
const AutoIterativeThreshold = 512

// AutoNestedThreshold is the filament count at which ModeAuto switches
// from the flat-ACA operator to the nested-basis one. Between the two
// thresholds the flat build is cheaper (the nested scheme's per-node
// far-field sampling is a fixed cost); beyond it the pairwise factors
// grow superlinearly and shared bases win.
const AutoNestedThreshold = 8192

// String returns the CLI spelling of the mode.
func (m SolveMode) String() string {
	switch m {
	case ModeDense:
		return "dense"
	case ModeIterative:
		return "iterative"
	case ModeNested:
		return "nested"
	default:
		return "auto"
	}
}

// ParseSolveMode parses the -solver CLI flag value.
func ParseSolveMode(s string) (SolveMode, error) {
	switch s {
	case "auto":
		return ModeAuto, nil
	case "dense":
		return ModeDense, nil
	case "iterative":
		return ModeIterative, nil
	case "nested":
		return ModeNested, nil
	}
	return ModeAuto, fmt.Errorf("fasthenry: unknown solve mode %q (want dense, iterative, nested or auto)", s)
}

// SolveModeInUse reports the mode Impedance will actually run
// (ModeAuto resolved against the filament count).
func (s *Solver) SolveModeInUse() SolveMode { return s.effectiveMode() }

func (s *Solver) effectiveMode() SolveMode {
	if s.mode != ModeAuto {
		return s.mode
	}
	switch {
	case len(s.fils) >= AutoNestedThreshold:
		return ModeNested
	case len(s.fils) >= AutoIterativeThreshold:
		return ModeIterative
	}
	return ModeDense
}

// iterativeMode reports whether the effective mode runs matrix-free
// GMRES (through either compressed operator).
func (s *Solver) iterativeMode() bool {
	m := s.effectiveMode()
	return m == ModeIterative || m == ModeNested
}

// gmresTol is the relative residual target of each port solve (the
// augmented branch/node system). Together with the ACA tolerance it
// bounds the iterative vs dense port-impedance mismatch (see DESIGN.md
// §10: documented at 1e-6 relative).
const gmresTol = 1e-10

// gmresRestart is the Krylov dimension per GMRES cycle.
const gmresRestart = 60

// compressedOp builds (once) the hierarchically compressed
// partial-inductance operator over the solver's filaments — flat ACA
// factors, or nested bases when the effective mode is ModeNested. Safe
// for concurrent callers; sweep workers share the cached operator. The
// construction itself fans out over Options.Workers goroutines through
// the shared kernel cache.
func (s *Solver) compressedOp() extract.LOperator {
	s.opOnce.Do(func() {
		elems := extract.FilamentElements(s.fils)
		// Cluster the filaments directly (plane grids have no segment to
		// cluster by; segment filaments land in the same leaves their
		// spatial position dictates). Leaf size targets ~48 filaments so
		// the block-Jacobi diagonal blocks stay cheap to factor while
		// capturing whole-conductor self coupling.
		roots := mesh.ClusterFilaments(s.fils, 48, s.workers)
		trees := extract.ElemTreesFromClusters(roots, func(i int) []int { return []int{i} })
		tol := s.acaTol
		if tol <= 0 {
			tol = 1e-8
		}
		if s.effectiveMode() == ModeNested {
			s.op = extract.CompressLH2(elems, trees, s.lpEntry,
				extract.H2Options{Tol: tol, Workers: s.workers})
		} else {
			s.op = extract.CompressL(elems, trees, s.lpEntry,
				extract.ACAOptions{Tol: tol, Workers: s.workers})
		}
	})
	return s.op
}

// OperatorStats returns the compression summary of the iterative
// path's operator (building it if needed).
func (s *Solver) OperatorStats() extract.CompressStats {
	return s.compressedOp().Stats()
}

// zbOp is the matrix-free branch impedance operator
// Zb x = R x + jω (Lp x) at one frequency. Each Impedance call makes
// its own (the scratch buffer is per-solve), so parallel sweep points
// share only the immutable compressed operator.
type zbOp struct {
	s       *Solver
	omega   float64
	op      extract.LOperator
	scratch []complex128
}

func (z *zbOp) Dim() int { return len(z.s.fils) }

func (z *zbOp) ApplyTo(dst, x []complex128) {
	z.op.ApplyCTo(z.scratch, x)
	jw := complex(0, z.omega)
	for i := range dst {
		dst[i] = complex(z.s.fils[i].R, 0)*x[i] + jw*z.scratch[i]
	}
}

// blockPrecond is the block-Jacobi preconditioner: the per-cluster
// diagonal blocks of Zb (per-conductor R + L_self coupling), complex-LU
// factored once per frequency point. Each block carries its own
// scratch, so applying it allocates nothing; one blockPrecond serves
// one solve at a time.
type blockPrecond struct {
	blocks []precondBlock
}

type precondBlock struct {
	idx []int
	lu  *matrix.CLU
	// dinv is the degraded per-entry fallback when the cluster block is
	// numerically singular and refuses to factor: the inverse of the
	// block's diagonal (identity where even that vanishes). A weaker
	// preconditioner costs GMRES iterations; a NaN-ed sweep costs the
	// run.
	dinv []complex128
	// rhs, x are the block-local gather and solve buffers.
	rhs, x []complex128
}

// buildBlockPrecond factors diag(R) + jω L_cc for every diagonal leaf
// cluster c of the compressed operator. Blocks that fail to factor
// fall back to their diagonal inverse instead of failing the solve.
func (s *Solver) buildBlockPrecond(op extract.LOperator, omega float64) *blockPrecond {
	diags := op.DiagBlocks()
	p := &blockPrecond{blocks: make([]precondBlock, 0, len(diags))}
	for _, d := range diags {
		n := len(d.Idx)
		zb := matrix.NewCDense(n, n)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				re := 0.0
				if a == b {
					re = s.fils[d.Idx[a]].R
				}
				zb.Set(a, b, complex(re, omega*d.V[a*n+b]))
			}
		}
		blk := precondBlock{idx: d.Idx, rhs: make([]complex128, n), x: make([]complex128, n)}
		lu, err := matrix.FactorComplexLU(zb)
		if err != nil {
			blk.dinv = make([]complex128, n)
			for a := 0; a < n; a++ {
				if v := zb.At(a, a); v != 0 {
					blk.dinv[a] = 1 / v
				} else {
					blk.dinv[a] = 1
				}
			}
		} else {
			blk.lu = lu
		}
		p.blocks = append(p.blocks, blk)
	}
	return p
}

// solveLocal computes dst = D_c^{-1} rhs over the block's own
// filaments (block-local indexing; dst and rhs must not alias).
func (b *precondBlock) solveLocal(dst, rhs []complex128) {
	if b.lu == nil {
		for a := range dst {
			dst[a] = b.dinv[a] * rhs[a]
		}
		return
	}
	if err := b.lu.SolveTo(dst, rhs); err != nil {
		// The factorization succeeded, so SolveTo cannot fail; fall
		// back to the identity on this block out of caution.
		copy(dst, rhs)
	}
}

// apply computes dst = M^{-1} src blockwise.
func (p *blockPrecond) apply(dst, src []complex128) {
	for k := range p.blocks {
		b := &p.blocks[k]
		for a, i := range b.idx {
			b.rhs[a] = src[i]
		}
		b.solveLocal(b.x, b.rhs)
		for a, i := range b.idx {
			dst[i] = b.x[a]
		}
	}
}
