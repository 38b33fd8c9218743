package extract

import (
	"math"
	"sync/atomic"

	"inductance101/internal/geom"
)

// Hierarchically compressed partial-inductance operator.
//
// A dense partial-inductance matrix over n coupled elements costs O(n²)
// memory and O(n²) kernel evaluations, and any solve through it at
// least O(n²) per matvec — the wall the paper's §4 points at when it
// recommends hierarchical models over raw partial-inductance matrices.
// The structure that saves us is smoothness: the mutual-inductance
// kernel between well-separated parallel conductors varies slowly with
// their relative placement, so the interaction block between two
// distant clusters is numerically low-rank. This file implements the
// flat hierarchical-matrix recipe over a geometric cluster tree
// (geom.Index.ClusterTree):
//
//   - near blocks (clusters that touch or overlap) are stored dense,
//     assembled through the geometry-keyed kernel cache, exact to the
//     last bit;
//   - far blocks (clusters whose cross-plane separation — or gap along
//     the shared routing axis — exceeds η times their extents) are
//     compressed with adaptive cross approximation (ACA) into rank-k
//     factors U Vᵀ, sampling only O(k(m+n)) kernel entries;
//   - symmetry is preserved by construction: each off-diagonal block is
//     stored once and applied both ways with the same factors, so
//     ⟨e_i, L e_j⟩ and ⟨e_j, L e_i⟩ are bit-identical.
//
// A matvec then costs the sum of the near-block areas plus Σ k(m+n)
// over far blocks — near-linear in n on regular layouts — which is what
// makes matrix-free GMRES extraction (internal/fasthenry) scale. Each
// far block's factors still grow with the block's side length, though,
// so both storage and build flatten at ~10⁴ elements; h2.go upgrades
// the same partition to nested bases for the 10⁵ regime.
//
// Construction is two-phase so it parallelizes over the cluster tree:
// the serial geometric partition shared with h2.go (partition.go) lists
// the diagonal, near and admissible blocks (no kernel evaluations),
// then workers claim blocks from the lists and fill them concurrently
// through the shared lock-striped kernel cache. Far blocks whose ACA
// hits the break-even rank cap are re-partitioned into their children
// between waves. Every block's
// content depends only on its own index lists, and blocks are stored in
// partition order, so the operator is bit-identical at any worker
// count.

// LOperator is the read interface shared by the compressed
// partial-inductance operators (the flat-ACA CompressedL and the
// nested-basis H2L): everything internal/fasthenry and the CLIs need
// to solve through, precondition, and inspect a compressed L without
// knowing its representation. Implementations are immutable after
// construction and safe for concurrent use.
type LOperator interface {
	// Dim returns the operator dimension.
	Dim() int
	// Stats returns the compression summary.
	Stats() CompressStats
	// Diag returns the exact diagonal entry L[i][i].
	Diag(i int) float64
	// DiagBlocks returns the dense diagonal leaf blocks — the basis of
	// the block-Jacobi preconditioner.
	DiagBlocks() []DiagBlock
	// ApplyTo computes dst = L*x over real vectors (no aliasing).
	ApplyTo(dst, x []float64)
	// ApplyCTo computes dst = L*x over complex vectors (no aliasing).
	ApplyCTo(dst, x []complex128)
	// EachUpper visits every strictly-upper-triangle entry once.
	EachUpper(fn func(i, j int, v float64))
}

// HElement describes one current-carrying element (a conductor bar or a
// skin-effect filament) for the compressed operator: its routing
// direction, span along that axis, centre-line coordinates in the
// perpendicular plane, and a radius bounding its cross-section.
type HElement struct {
	Dir      int     // 0 = x-directed, 1 = y-directed (matches geom.Direction)
	A0, A1   float64 // span along the routing axis (m)
	Cross, Z float64 // centre-line cross coordinate and height (m)
	Rad      float64 // cross-section bounding radius (m)
}

// ElemTree is a cluster tree over element indices — the element-level
// mirror of geom.ClusterNode, with segments expanded into the elements
// they contain (a bar maps to itself, a FastHenry segment to its
// filaments).
type ElemTree struct {
	Elems       []int
	Left, Right *ElemTree
	// Level is the depth below the root (roots are level 0).
	Level int
}

// ElemTreesFromClusters converts segment cluster trees into element
// trees: each segment node's element list is the concatenation of
// elemsOf(seg) over its segments, preserving tree shape, order and
// levels.
func ElemTreesFromClusters(roots []*geom.ClusterNode, elemsOf func(seg int) []int) []*ElemTree {
	out := make([]*ElemTree, 0, len(roots))
	for _, r := range roots {
		out = append(out, elemTreeFrom(r, elemsOf, 0))
	}
	return out
}

func elemTreeFrom(n *geom.ClusterNode, elemsOf func(seg int) []int, level int) *ElemTree {
	t := &ElemTree{Level: level}
	if n.IsLeaf() {
		for _, si := range n.Segs {
			t.Elems = append(t.Elems, elemsOf(si)...)
		}
		return t
	}
	t.Left = elemTreeFrom(n.Left, elemsOf, level+1)
	t.Right = elemTreeFrom(n.Right, elemsOf, level+1)
	t.Elems = make([]int, 0, len(t.Left.Elems)+len(t.Right.Elems))
	t.Elems = append(t.Elems, t.Left.Elems...)
	t.Elems = append(t.Elems, t.Right.Elems...)
	return t
}

// ACAOptions controls the flat hierarchical compression.
type ACAOptions struct {
	// Tol is the relative Frobenius-norm tolerance of each low-rank
	// block: ACA stops adding rank-one terms once the latest term's
	// norm falls below Tol times the accumulated block norm. Default
	// 1e-8. Smaller is tighter and more expensive; the operator's
	// overall matvec error is of the same order as Tol.
	Tol float64
	// Eta is the admissibility parameter: two clusters are compressed
	// when their separation exceeds Eta times the sum of their extents
	// (cross-plane distance vs cross extents, or axis gap vs axis
	// extents for collinear clusters). Default 1.
	Eta float64
	// MaxRank caps each block's ACA rank; blocks that fail to converge
	// within the cap fall back to exact dense storage. Default: the
	// break-even rank m·n/(2(m+n)) beyond which the factors would cost
	// more than the dense block.
	MaxRank int
	// Workers caps the goroutines filling blocks during construction.
	// 0 = process default (matrix.Workers), 1 = fully serial. The
	// operator is bit-identical at every worker count.
	Workers int
}

func (o ACAOptions) tol() float64 {
	if o.Tol <= 0 {
		return 1e-8
	}
	return o.Tol
}

func (o ACAOptions) eta() float64 {
	if o.Eta <= 0 {
		return 1
	}
	return o.Eta
}

// lowRankBlock approximates an interaction block as U Vᵀ with k
// rank-one terms: u is k x len(rows), v is k x len(cols), row-major by
// term.
type lowRankBlock struct {
	rows, cols []int
	r0, c0     int // cluster-order positions of rows[0] and cols[0]
	u, v       []float64
	k          int
	level      int // cluster-tree depth the block was created at
}

// LevelStats is one cluster-tree depth's compression summary: how many
// low-rank blocks (ACA factors or nested-basis couplings) live there
// and the spread of their ranks, plus — on the nested-basis path — the
// interpolation bases anchored at that depth. The per-level rank
// histogram is how compression quality vs depth is inspected without a
// debugger (rlsweep -v / inductx -v print it).
type LevelStats struct {
	Level     int // depth below the root (0 = coarsest)
	FarBlocks int // low-rank blocks anchored at this depth
	MinRank   int
	MaxRank   int
	AvgRank   float64
	// Bases and BasisMaxRank describe the nested-basis cluster bases at
	// this depth (zero on the flat-ACA path).
	Bases        int
	BasisMaxRank int
}

// CompressStats summarizes a compressed operator.
type CompressStats struct {
	N                  int // elements
	DiagBlocks         int // dense diagonal leaf blocks
	NearBlocks         int // dense off-diagonal blocks
	FarBlocks          int // low-rank far blocks (ACA factors or couplings)
	MaxRank            int
	AvgRank            float64
	StoredFloats       int // floats held by all blocks (and bases)
	DenseFloats        int // n*n a dense matrix would hold
	KernelEvals        int // kernel entries sampled during construction
	NearKernelEvals    int // exact evaluations into diagonal + near blocks
	FarKernelEvals     int // sampled evaluations into low-rank factors/bases
	DenseKernelEntries int // n*(n+1)/2 a dense assembly would evaluate
	Levels             []LevelStats
	Nested             bool // true for the nested-basis (H²) operator
}

// CompressionRatio returns dense storage over compressed storage.
func (s CompressStats) CompressionRatio() float64 {
	if s.StoredFloats == 0 {
		return 0
	}
	return float64(s.DenseFloats) / float64(s.StoredFloats)
}

// CompressedL is a symmetric partial-inductance operator stored as
// flat hierarchical blocks. It is immutable after construction and safe
// for concurrent ApplyTo/ApplyCTo/Diag/EachUpper calls — a frequency
// sweep shares one operator across all worker goroutines.
type CompressedL struct {
	nearField
	far   []lowRankBlock
	stats CompressStats
	maxK  int
}

var _ LOperator = (*CompressedL)(nil)

// Stats returns the compression summary.
func (c *CompressedL) Stats() CompressStats { return c.stats }

// ApplyTo computes dst = L*x over real vectors. dst and x must not
// alias and have length Dim.
func (c *CompressedL) ApplyTo(dst, x []float64) { c.applyR(c, dst, x) }

// ApplyCTo computes dst = L*x over complex vectors (the factors are
// real; the FastHenry branch-impedance operator applies jωL to complex
// currents). dst and x must not alias and have length Dim.
func (c *CompressedL) ApplyCTo(dst, x []complex128) { c.applyC(c, dst, x) }

// applyFar adds each far block applied both ways:
// y[rows] += U (Vᵀ x[cols]) and y[cols] += V (Uᵀ x[rows]).
func (c *CompressedL) applyFar(w *applyWork) {
	for bi := range c.far {
		b := &c.far[bi]
		r1, c1 := b.r0+len(b.rows), b.c0+len(b.cols)
		t := w.scratch.slice(0, b.k)
		t.clear()
		mulAdd(t, b.v, w.x.slice(b.c0, c1))
		mulTAdd(w.y.slice(b.r0, r1), b.u, t)
		t.clear()
		mulAdd(t, b.u, w.x.slice(b.r0, r1))
		mulTAdd(w.y.slice(b.c0, c1), b.v, t)
	}
}

// EachUpper visits every strictly-upper-triangle entry (i < j, value
// possibly an ACA approximation on far blocks) exactly once, in block
// order. Cross-direction pairs, which are identically zero, are not
// visited.
func (c *CompressedL) EachUpper(fn func(i, j int, v float64)) {
	c.eachUpper(fn)
	for bi := range c.far {
		b := &c.far[bi]
		m, n := len(b.rows), len(b.cols)
		for a, i := range b.rows {
			for j, cj := range b.cols {
				s := 0.0
				for k := 0; k < b.k; k++ {
					s += b.u[k*m+a] * b.v[k*n+j]
				}
				emitUpper(fn, i, cj, s)
			}
		}
	}
}

// compressor carries the flat build's state: the shared partition,
// whose far pairs it compresses, and the operator it fills.
type compressor struct {
	entry func(i, j int) float64 // symmetric kernel
	opt   ACAOptions
	part  *blockPartition
	op    *CompressedL
	farEv atomic.Int64 // kernel entries sampled by ACA
}

// CompressL builds the flat hierarchically compressed operator over
// elems from the given per-direction cluster trees. entry(i, j) must
// return the symmetric interaction L[i][j] and be safe to call with
// i == j; it is evaluated with i <= j only, so kernel-cache keys stay
// canonical, and it must be safe for concurrent calls (the build fans
// out over ACAOptions.Workers). Trees must partition [0, len(elems))
// and each tree must hold elements of a single direction.
func CompressL(elems []HElement, trees []*ElemTree, entry func(i, j int) float64, opt ACAOptions) *CompressedL {
	c := &compressor{
		entry: symmetric(entry),
		opt:   opt,
		part:  partition(elems, trees, opt.eta()),
		op:    &CompressedL{},
	}
	c.fillFar()
	c.op.nearField = c.part.fillNear(c.entry, opt.Workers)
	c.op.initWork(c.op.maxK)
	c.finishStats()
	return c.op
}

// fillFar compresses the partition's far pairs in parallel waves: each
// wave runs ACA on the current pairs concurrently; pairs whose ACA
// fails are subdivided, and the pairs that yields form the next wave.
// Block content depends only on its own index lists and factors land
// in partition order, so the result is identical at every worker count.
func (c *compressor) fillFar() {
	type farResult struct {
		u, v []float64
		k    int
		ok   bool
	}
	for cands := c.part.takeFar(); len(cands) > 0; cands = c.part.takeFar() {
		results := make([]farResult, len(cands))
		parallelItems(c.opt.Workers, len(cands), func(i int) {
			u, v, k, ok := c.aca(cands[i].a.Elems, cands[i].b.Elems)
			results[i] = farResult{u: u, v: v, k: k, ok: ok}
		})
		for i, r := range results {
			if r.ok {
				a, b := cands[i].a, cands[i].b
				c.op.far = append(c.op.far, lowRankBlock{
					rows: a.Elems, cols: b.Elems,
					r0: c.part.start[a], c0: c.part.start[b],
					u: r.u, v: r.v, k: r.k, level: cands[i].level,
				})
				c.op.maxK = max(c.op.maxK, r.k)
				continue
			}
			// The block refused to converge within the break-even rank:
			// subdivide (or store dense at the leaves) next wave.
			c.part.subdivide(cands[i].a, cands[i].b)
		}
	}
}

// entryFar evaluates the symmetric kernel as an ACA sample.
func (c *compressor) entryFar(i, j int) float64 {
	c.farEv.Add(1)
	return c.entry(i, j)
}

// aca runs partially pivoted adaptive cross approximation on the block
// entry(rows[a], cols[b]), sampling whole residual rows and columns
// until the newest rank-one term's norm drops below tol times the
// accumulated approximation norm.
func (c *compressor) aca(rows, cols []int) (u, v []float64, rank int, ok bool) {
	m, n := len(rows), len(cols)
	maxRank := c.opt.MaxRank
	if maxRank <= 0 {
		maxRank = m * n / (2 * (m + n))
	}
	if maxRank < 1 {
		// Blocks too small to ever profit from factors.
		return nil, nil, 0, false
	}
	tol := c.opt.tol()
	usedRow := make([]bool, m)
	usedCol := make([]bool, n)
	fro2 := 0.0
	i := 0
	rowsLeft := m
	for rank < maxRank {
		// Residual row i.
		r := make([]float64, n)
		for j := 0; j < n; j++ {
			e := c.entryFar(rows[i], cols[j])
			for k := 0; k < rank; k++ {
				e -= u[k*m+i] * v[k*n+j]
			}
			r[j] = e
		}
		usedRow[i] = true
		rowsLeft--
		// Pivot column: largest residual among unused columns.
		jp, amax := -1, 0.0
		for j := 0; j < n; j++ {
			if usedCol[j] {
				continue
			}
			if a := math.Abs(r[j]); a > amax {
				jp, amax = j, a
			}
		}
		if jp < 0 || amax == 0 {
			// Row already fully represented: move to the next one, or
			// stop if the whole block is captured.
			if rowsLeft == 0 {
				return u, v, rank, true
			}
			for a := 0; a < m; a++ {
				if !usedRow[a] {
					i = a
					break
				}
			}
			continue
		}
		piv := r[jp]
		for j := range r {
			r[j] /= piv
		}
		// Residual column jp.
		cv := make([]float64, m)
		for a := 0; a < m; a++ {
			e := c.entryFar(rows[a], cols[jp])
			for k := 0; k < rank; k++ {
				e -= u[k*m+a] * v[k*n+jp]
			}
			cv[a] = e
		}
		usedCol[jp] = true
		// Accumulate the new term and the running Frobenius norm:
		// ||A_k||² = ||A_{k-1}||² + 2 Σ (u_k·u_t)(v_k·v_t) + ||u_k||²||v_k||².
		nu2, nv2 := 0.0, 0.0
		for _, x := range cv {
			nu2 += x * x
		}
		for _, x := range r {
			nv2 += x * x
		}
		for k := 0; k < rank; k++ {
			du, dv := 0.0, 0.0
			for a := 0; a < m; a++ {
				du += u[k*m+a] * cv[a]
			}
			for j := 0; j < n; j++ {
				dv += v[k*n+j] * r[j]
			}
			fro2 += 2 * du * dv
		}
		fro2 += nu2 * nv2
		u = append(u, cv...)
		v = append(v, r...)
		rank++
		if math.Sqrt(nu2*nv2) <= tol*math.Sqrt(math.Max(fro2, 0)) {
			return u, v, rank, true
		}
		if rowsLeft == 0 {
			return u, v, rank, true
		}
		// Next pivot row: largest entry of the new column among unused
		// rows.
		ip, rmax := -1, -1.0
		for a := 0; a < m; a++ {
			if usedRow[a] {
				continue
			}
			if x := math.Abs(cv[a]); x > rmax {
				ip, rmax = a, x
			}
		}
		i = ip
	}
	return nil, nil, 0, false
}

func (c *compressor) finishStats() {
	st := c.op.nearField.stats()
	st.FarBlocks = len(c.op.far)
	ranks := 0
	byLevel := make(map[int]*LevelStats)
	for _, b := range c.op.far {
		st.StoredFloats += len(b.u) + len(b.v)
		ranks += b.k
		if b.k > st.MaxRank {
			st.MaxRank = b.k
		}
		ls := byLevel[b.level]
		if ls == nil {
			ls = &LevelStats{Level: b.level, MinRank: b.k}
			byLevel[b.level] = ls
		}
		ls.FarBlocks++
		if b.k < ls.MinRank {
			ls.MinRank = b.k
		}
		if b.k > ls.MaxRank {
			ls.MaxRank = b.k
		}
		ls.AvgRank += float64(b.k)
	}
	if len(c.op.far) > 0 {
		st.AvgRank = float64(ranks) / float64(len(c.op.far))
	}
	st.Levels = sortedLevels(byLevel)
	st.FarKernelEvals = int(c.farEv.Load())
	st.KernelEvals = st.NearKernelEvals + st.FarKernelEvals
	c.op.stats = st
}

// sortedLevels orders the per-level stats by depth and finalizes the
// rank averages (accumulated as sums).
func sortedLevels(byLevel map[int]*LevelStats) []LevelStats {
	out := make([]LevelStats, 0, len(byLevel))
	for _, ls := range byLevel {
		if ls.FarBlocks > 0 {
			ls.AvgRank /= float64(ls.FarBlocks)
		}
		out = append(out, *ls)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Level < out[j-1].Level; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// CompressInductance builds the compressed partial-inductance operator
// over the given layout segments (one element per segment), with the
// same self/mutual kernels — through the geometry-keyed cache named by
// cache (zero = process default) — as InductanceMatrix with an
// unlimited window. Position k of the operator corresponds to segs[k].
func CompressInductance(l *geom.Layout, segs []int, gmd GMDOptions, opt ACAOptions, cache CacheRef) *CompressedL {
	elems, trees, entry := segmentOperatorInputs(l, segs, gmd, cache, opt.Workers)
	return CompressL(elems, trees, entry, opt)
}

// segmentOperatorInputs prepares the shared inputs of the segment-level
// compressed operators: one HElement per segment, per-direction cluster
// trees, and the cached self/mutual kernel closure.
func segmentOperatorInputs(l *geom.Layout, segs []int, gmd GMDOptions, cache CacheRef, workers int) ([]HElement, []*ElemTree, func(i, j int) float64) {
	kc := cache.Cache()
	elems := make([]HElement, len(segs))
	for k, si := range segs {
		s := &l.Segments[si]
		t := l.Layers[s.Layer].Thickness
		lo, hi := s.AxisSpan()
		elems[k] = HElement{
			Dir: int(s.Dir), A0: lo, A1: hi,
			Cross: s.CrossCoord(), Z: l.Z(si),
			Rad: math.Hypot(s.Width, t) / 2,
		}
	}
	pos := make(map[int]int, len(segs))
	for k, si := range segs {
		pos[si] = k
	}
	entry := func(i, j int) float64 {
		si, sj := segs[i], segs[j]
		a := &l.Segments[si]
		ta := l.Layers[a.Layer].Thickness
		if i == j {
			return kc.SelfInductanceBar(a.Length, a.Width, ta)
		}
		b := &l.Segments[sj]
		pg, okPar := l.Parallel(si, sj)
		if !okPar {
			return 0
		}
		tb := l.Layers[b.Layer].Thickness
		return kc.MutualBars(pg, a.Width, ta, b.Width, tb, gmd)
	}
	idx := geom.NewIndex(l, 0)
	roots := idx.ClusterTreeParallel(segs, 16, workers)
	trees := ElemTreesFromClusters(roots, func(si int) []int { return []int{pos[si]} })
	return elems, trees, entry
}
