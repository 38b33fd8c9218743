package fasthenry

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"inductance101/internal/matrix"
)

// Port-driven iterative solve.
//
// The iterative paths drive the port once per frequency point instead
// of reducing the full nodal admittance. With A the reduced incidence
// (port minus node as reference), branch currents I and node voltages V
// satisfy the augmented system
//
//	K [I]   [Zb  −Aᵀ] [I]   [0 ]
//	  [V] = [A    0 ] [V] = [e₊]
//
// of dimension nf + nn: branch voltage drops in the first block, KCL
// with 1 A injected at the port plus node in the second. The port
// impedance is Z = V₊. One right-preconditioned GMRES solves it per
// point, with the block upper-triangular preconditioner
//
//	P = [D  −Aᵀ]
//	    [0   S ],   S = A D⁻¹ Aᵀ,
//
// where D is the per-cluster block-Jacobi of Zb and S its sparse nodal
// Schur complement. If D were Zb exactly, K P⁻¹ = [I 0; A D⁻¹ I] and
// GMRES would converge in two steps; the far-field coupling D leaves
// out costs tens to a few hundred iterations. S couples only nodes sharing a cluster, so
// its pattern is fixed by the clusters and the incidence: it is built
// and symbolically factored once per Solver (at DC, where S is a
// grounded resistive Laplacian and every pivot stays on the diagonal),
// and each point only fills values and refactors numerically.

// portSystem is the frequency-independent structure of the port solve,
// shared read-only by every sweep worker.
type portSystem struct {
	nf, nn int
	ra, rb []int // reduced node row of each filament's NodeA / NodeB (-1: reference)
	plus   int   // reduced row of the port plus node
	// exact reports a single diagonal block spanning every filament:
	// then D = Zb, a cold solve converges in one step, and a warm start
	// could only add an iteration.
	exact  bool
	blocks []schurBlock
	s0     *matrix.CCSC      // S at DC: the pattern every point refills
	sym    *matrix.SparseCLU // S at DC factored: the shared pivot order and factor pattern
}

// schurBlock maps one diagonal cluster block of the compressed
// operator (same order as its DiagBlocks) onto S.
type schurBlock struct {
	nodes  []int // reduced nodes the block's filaments touch, ascending
	la, lb []int // per block filament: index into nodes of its ends (-1: reference)
	pos    []int // S value slot of entry (nodes[p], nodes[q]) at pos[p*len(nodes)+q]
}

// portSys builds (once) the port solve's structure. Safe for
// concurrent callers.
func (s *Solver) portSys() (*portSystem, error) {
	s.portOnce.Do(func() { s.port, s.portErr = s.buildPortSystem() })
	return s.port, s.portErr
}

func (s *Solver) buildPortSystem() (*portSystem, error) {
	op := s.compressedOp()
	nf, nn := len(s.fils), s.nNodes-1
	ps := &portSystem{nf: nf, nn: nn, ra: make([]int, nf), rb: make([]int, nf), plus: s.nodeRow(s.plus)}
	for i := range s.fils {
		ps.ra[i] = s.nodeRow(s.fils[i].NodeA)
		ps.rb[i] = s.nodeRow(s.fils[i].NodeB)
	}

	// Pattern of S: every pair of nodes touched by one cluster block,
	// plus the full diagonal.
	colRows := make([][]int, nn)
	for n := range colRows {
		colRows[n] = []int{n}
	}
	diags := op.DiagBlocks()
	ps.exact = len(diags) == 1
	ps.blocks = make([]schurBlock, len(diags))
	for c, d := range diags {
		sb := &ps.blocks[c]
		for _, fi := range d.Idx {
			for _, r := range [2]int{ps.ra[fi], ps.rb[fi]} {
				if r >= 0 {
					sb.nodes = append(sb.nodes, r)
				}
			}
		}
		slices.Sort(sb.nodes)
		sb.nodes = slices.Compact(sb.nodes)
		local := func(r int) int {
			if r < 0 {
				return -1
			}
			return sort.SearchInts(sb.nodes, r)
		}
		sb.la, sb.lb = make([]int, len(d.Idx)), make([]int, len(d.Idx))
		for a, fi := range d.Idx {
			sb.la[a], sb.lb[a] = local(ps.ra[fi]), local(ps.rb[fi])
		}
		for _, m := range sb.nodes {
			colRows[m] = append(colRows[m], sb.nodes...)
		}
	}
	colPtr := make([]int, nn+1)
	var rowIdx []int
	for m, rows := range colRows {
		slices.Sort(rows)
		rows = slices.Compact(rows)
		rowIdx = append(rowIdx, rows...)
		colPtr[m+1] = len(rowIdx)
	}
	for c := range ps.blocks {
		sb := &ps.blocks[c]
		nb := len(sb.nodes)
		sb.pos = make([]int, nb*nb)
		for q, m := range sb.nodes {
			col := rowIdx[colPtr[m]:colPtr[m+1]]
			for p, n := range sb.nodes {
				sb.pos[p*nb+q] = colPtr[m] + sort.SearchInts(col, n)
			}
		}
	}

	vals := make([]complex128, len(rowIdx))
	ps.fillSchur(s.buildBlockPrecond(op, 0), vals)
	ps.s0 = matrix.CSCFromParts(nn, nn, colPtr, rowIdx, vals)
	sym, err := matrix.FactorSparseCLUWorkers(ps.s0, 1)
	if err != nil {
		return nil, fmt.Errorf("fasthenry: port network disconnected: %w", err)
	}
	ps.sym = sym
	return ps, nil
}

// fillSchur writes the values of S = A D⁻¹ Aᵀ for the factored
// diagonal blocks bj into vals (over the s0 pattern): block c adds
// A_c D_c⁻¹ A_cᵀ, one block solve per node the block touches.
func (ps *portSystem) fillSchur(bj *blockPrecond, vals []complex128) {
	for i := range vals {
		vals[i] = 0
	}
	for c := range ps.blocks {
		sb, pb := &ps.blocks[c], &bj.blocks[c]
		nb := len(sb.nodes)
		for q := 0; q < nb; q++ {
			for a := range pb.rhs {
				var v complex128
				if sb.la[a] == q {
					v++
				}
				if sb.lb[a] == q {
					v--
				}
				pb.rhs[a] = v
			}
			pb.solveLocal(pb.x, pb.rhs)
			for a, w := range pb.x {
				if p := sb.la[a]; p >= 0 {
					vals[sb.pos[p*nb+q]] += w
				}
				if p := sb.lb[a]; p >= 0 {
					vals[sb.pos[p*nb+q]] -= w
				}
			}
		}
	}
}

// portWork is one sweep worker's state across its frequency points. It
// is not safe for concurrent use; give each worker its own.
type portWork struct {
	// x is the previous point's solution [I; V], the next point's warm
	// start (nil: cold).
	x []complex128
	// sf is the worker's numeric Schur factor over the shared symbolic
	// pattern, vals the S values it factors.
	sf   *matrix.SparseCLU
	vals []complex128
	// rs is the Krylov recycling space an adaptive sweep carries across
	// its anchors (nil: none).
	rs *matrix.RecycleSpace
}

// impedancePort solves the port impedance at frequency f with one
// right-preconditioned GMRES on the augmented system. w carries the
// worker's warm start, Schur factor and recycling space across points
// and is updated in place (nil: a one-off cold solve). It returns the
// impedance and the solve's GMRES iterations.
func (s *Solver) impedancePort(f float64, w *portWork) (complex128, int, error) {
	ps, err := s.portSys()
	if err != nil {
		return 0, 0, err
	}
	if w == nil {
		w = &portWork{}
	}
	op := s.compressedOp()
	omega := 2 * math.Pi * f
	bj := s.buildBlockPrecond(op, omega)
	if w.sf == nil {
		w.sf = ps.sym.NewNumeric()
		w.vals = make([]complex128, ps.s0.NNZ())
	}
	ps.fillSchur(bj, w.vals)
	sm := ps.s0.WithValues(w.vals)
	sf := w.sf
	if sf.Refactor(sm) != nil {
		// The DC pivot order does not suit this frequency: factor
		// afresh with new pivots for this point only.
		if sf, err = matrix.FactorSparseCLUWorkers(sm, 1); err != nil {
			return 0, 0, fmt.Errorf("fasthenry: nodal Schur complement singular at %g Hz: %w", f, err)
		}
	}

	nf := ps.nf
	k := &portOp{ps: ps, zb: &zbOp{s: s, omega: omega, op: op, scratch: make([]complex128, nf)}}
	pre := &portPrecond{
		ps: ps, sf: sf, bj: bj,
		t: make([]complex128, nf), scratch: make([]complex128, ps.nn),
	}
	b := make([]complex128, nf+ps.nn)
	b[nf+ps.plus] = 1
	opt := matrix.GMRESOptions{Restart: gmresRestart, Tol: gmresTol, Precond: pre.apply}
	if !ps.exact {
		opt.X0 = w.x
	}
	w.rs.Invalidate()
	x, res, err := matrix.GMRESRecycled(k, b, opt, w.rs)
	if err != nil {
		return 0, res.Iters, fmt.Errorf("fasthenry: GMRES at %g Hz: %w", f, err)
	}
	if !res.Converged {
		return 0, res.Iters, fmt.Errorf(
			"fasthenry: GMRES stalled at %g Hz (residual %.2e after %d iterations); use the dense solve mode",
			f, res.Residual, res.Iters)
	}
	w.x = x
	return x[nf+ps.plus], res.Iters, nil
}

// portOp is the augmented operator K = [Zb −Aᵀ; A 0] at one frequency.
type portOp struct {
	ps *portSystem
	zb *zbOp
}

func (k *portOp) Dim() int { return k.ps.nf + k.ps.nn }

func (k *portOp) ApplyTo(dst, x []complex128) {
	nf := k.ps.nf
	xi, xv := x[:nf], x[nf:]
	k.zb.ApplyTo(dst[:nf], xi)
	kcl := dst[nf:]
	for n := range kcl {
		kcl[n] = 0
	}
	for f := 0; f < nf; f++ {
		if a := k.ps.ra[f]; a >= 0 {
			dst[f] -= xv[a]
			kcl[a] += xi[f]
		}
		if b := k.ps.rb[f]; b >= 0 {
			dst[f] += xv[b]
			kcl[b] -= xi[f]
		}
	}
}

// portPrecond applies P⁻¹ for P = [D −Aᵀ; 0 S]: V = S⁻¹ r_V, then
// I = D⁻¹ (r_I + Aᵀ V), with D⁻¹ the block-Jacobi branch preconditioner.
type portPrecond struct {
	ps         *portSystem
	sf         *matrix.SparseCLU
	bj         *blockPrecond
	t, scratch []complex128
}

func (p *portPrecond) apply(dst, src []complex128) {
	nf := p.ps.nf
	v := dst[nf:]
	if err := p.sf.SolveTo(v, src[nf:], p.scratch); err != nil {
		// The factorization succeeded, so SolveTo cannot fail; fall
		// back to the identity out of caution.
		copy(v, src[nf:])
	}
	for f := range p.t {
		t := src[f]
		if a := p.ps.ra[f]; a >= 0 {
			t += v[a]
		}
		if b := p.ps.rb[f]; b >= 0 {
			t -= v[b]
		}
		p.t[f] = t
	}
	p.bj.apply(dst[:nf], p.t)
}
