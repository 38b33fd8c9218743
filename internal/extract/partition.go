package extract

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"inductance101/internal/matrix"
)

// Block partition and exact near field shared by both compressed
// operators.
//
// The flat-ACA CompressedL and the nested-basis H2L tile the matrix
// identically; they differ only in how they store the admissible
// blocks. This file holds what they share: the geometric partition of
// the per-direction cluster trees into diagonal leaf blocks, near
// (inadmissible leaf-leaf) blocks and admissible far pairs, and the
// nearField both operators embed — the exact dense diagonal and near
// blocks, their matvecs, and the element → diagonal-block index behind
// Diag and the block-Jacobi preconditioner. The flat compressor
// consumes the far list as ACA candidates and hands pairs whose ACA
// fails back to subdivide; the nested builder consumes the same list as
// coupling candidates and partner lists.
//
// The partition also numbers the elements once in cluster-tree order
// (perm): every tree node's elements then occupy one contiguous range of
// positions, so the apply kernels (apply.go) address each block as a
// range instead of through an index list per entry.

// nodeBounds is the cached geometry of one cluster-tree node.
type nodeBounds struct {
	axisLo, axisHi   float64
	crossLo, crossHi float64 // inflated by element radii
	zLo, zHi         float64 // inflated by element radii
}

func (b nodeBounds) crossExtent() float64 {
	return math.Hypot(b.crossHi-b.crossLo, b.zHi-b.zLo)
}

func gap(aLo, aHi, bLo, bHi float64) float64 {
	if aHi < bLo {
		return bLo - aHi
	}
	if bHi < aLo {
		return aLo - bHi
	}
	return 0
}

// elemBounds computes the bounding box of the given elements, inflated
// by their cross-section radii.
func elemBounds(elems []HElement, idx []int) nodeBounds {
	var b nodeBounds
	for i, ei := range idx {
		e := &elems[ei]
		if i == 0 {
			b = nodeBounds{
				axisLo: e.A0, axisHi: e.A1,
				crossLo: e.Cross - e.Rad, crossHi: e.Cross + e.Rad,
				zLo: e.Z - e.Rad, zHi: e.Z + e.Rad,
			}
			continue
		}
		b.axisLo = math.Min(b.axisLo, e.A0)
		b.axisHi = math.Max(b.axisHi, e.A1)
		b.crossLo = math.Min(b.crossLo, e.Cross-e.Rad)
		b.crossHi = math.Max(b.crossHi, e.Cross+e.Rad)
		b.zLo = math.Min(b.zLo, e.Z-e.Rad)
		b.zHi = math.Max(b.zHi, e.Z+e.Rad)
	}
	return b
}

// boundsAdmissible reports whether two bounded clusters are smooth
// enough to compress: separated in the cross plane by more than eta
// times their combined cross extents, or — for collinear clusters —
// separated along the routing axis by more than eta times their
// combined axis extents. Either separation bounds the kernel away from
// its near-field singularity across the whole block.
func boundsAdmissible(ba, bb nodeBounds, eta float64) bool {
	crossDist := math.Hypot(
		gap(ba.crossLo, ba.crossHi, bb.crossLo, bb.crossHi),
		gap(ba.zLo, ba.zHi, bb.zLo, bb.zHi),
	)
	if crossDist > 0 && crossDist >= eta*(ba.crossExtent()+bb.crossExtent()) {
		return true
	}
	axisGap := gap(ba.axisLo, ba.axisHi, bb.axisLo, bb.axisHi)
	if axisGap > 0 && axisGap >= eta*((ba.axisHi-ba.axisLo)+(bb.axisHi-bb.axisLo)) {
		return true
	}
	return false
}

// blockPartition is the geometric block partition of one operator
// build. Pure geometry — no kernel evaluations — and serial, so its
// lists come out in one deterministic order.
type blockPartition struct {
	elems  []HElement
	eta    float64
	bounds map[*ElemTree]nodeBounds
	// perm[p] is the element at cluster-order position p; node t holds
	// positions start[t] through start[t]+len(t.Elems)-1, in t.Elems
	// order.
	perm  []int
	start map[*ElemTree]int

	diag []*ElemTree    // leaf clusters: dense diagonal blocks
	near [][2]*ElemTree // inadmissible leaf pairs: dense off-diagonal blocks
	far  []farPair      // admissible pairs the operator has not taken yet
}

// farPair is one admissible block, anchored at the deeper of its two
// nodes' levels.
type farPair struct {
	a, b  *ElemTree
	level int
}

// partition tiles the symmetric matrix over elems: each tree is
// partitioned against itself (cross-direction tree pairs couple
// nothing and are skipped entirely).
func partition(elems []HElement, trees []*ElemTree, eta float64) *blockPartition {
	p := &blockPartition{
		elems: elems, eta: eta,
		bounds: make(map[*ElemTree]nodeBounds),
		start:  make(map[*ElemTree]int),
	}
	for _, t := range trees {
		p.number(t)
	}
	seen := make([]bool, len(elems))
	for _, i := range p.perm {
		if seen[i] {
			panic("extract: cluster trees list an element twice")
		}
		seen[i] = true
	}
	if len(p.perm) != len(elems) {
		panic("extract: cluster trees do not cover every element")
	}
	for _, t := range trees {
		p.visitSelf(t)
	}
	return p
}

// number appends t's elements to the cluster order, leaves left to
// right. A non-leaf's element list must be its children's
// concatenation (as ElemTreesFromClusters builds it) for the node to
// own one contiguous range.
func (p *blockPartition) number(t *ElemTree) {
	lo := len(p.perm)
	p.start[t] = lo
	if t.Left == nil {
		p.perm = append(p.perm, t.Elems...)
		return
	}
	p.number(t.Left)
	p.number(t.Right)
	if !slices.Equal(t.Elems, p.perm[lo:]) {
		panic("extract: cluster-tree node elements are not its children's concatenation")
	}
}

// takeFar returns the admissible pairs found so far and clears the
// list, so pairs a later subdivide finds form the next batch.
func (p *blockPartition) takeFar() []farPair {
	far := p.far
	p.far = nil
	return far
}

func (p *blockPartition) boundsOf(t *ElemTree) nodeBounds {
	if b, ok := p.bounds[t]; ok {
		return b
	}
	b := elemBounds(p.elems, t.Elems)
	p.bounds[t] = b
	return b
}

// visitSelf partitions a tree against itself: leaves become dense
// diagonal blocks, sibling interactions are partitioned into near and
// admissible far pairs.
func (p *blockPartition) visitSelf(t *ElemTree) {
	if t.Left == nil {
		p.diag = append(p.diag, t)
		return
	}
	p.visitSelf(t.Left)
	p.visitSelf(t.Right)
	p.visitPair(t.Left, t.Right)
}

func (p *blockPartition) visitPair(a, b *ElemTree) {
	if len(a.Elems) == 0 || len(b.Elems) == 0 {
		return
	}
	if boundsAdmissible(p.boundsOf(a), p.boundsOf(b), p.eta) {
		p.far = append(p.far, farPair{a: a, b: b, level: max(a.Level, b.Level)})
		return
	}
	p.subdivide(a, b)
}

// subdivide recurses an inadmissible (or ACA-failed) pair one step
// down, mirroring the classic H-matrix partition: leaf-leaf pairs
// become near blocks, otherwise the larger side splits.
func (p *blockPartition) subdivide(a, b *ElemTree) {
	aLeaf, bLeaf := a.Left == nil, b.Left == nil
	switch {
	case aLeaf && bLeaf:
		p.near = append(p.near, [2]*ElemTree{a, b})
	case aLeaf:
		p.visitPair(a, b.Left)
		p.visitPair(a, b.Right)
	case bLeaf:
		p.visitPair(a.Left, b)
		p.visitPair(a.Right, b)
	case len(a.Elems) >= len(b.Elems):
		p.visitPair(a.Left, b)
		p.visitPair(a.Right, b)
	default:
		p.visitPair(a, b.Left)
		p.visitPair(a, b.Right)
	}
}

// symmetric wraps a kernel so it is only ever evaluated with i <= j,
// keeping kernel-cache keys canonical.
func symmetric(entry func(i, j int) float64) func(i, j int) float64 {
	return func(i, j int) float64 {
		if i <= j {
			return entry(i, j)
		}
		return entry(j, i)
	}
}

// parallelItems runs fn(0..n-1) across workers goroutines with an
// atomic work counter (item costs vary wildly — top-level far blocks
// dominate — so fine-grained stealing balances best). workers <= 0
// means the process default; 1 runs inline.
func parallelItems(workers, n int, fn func(i int)) {
	if workers <= 0 {
		workers = matrix.Workers()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// denseBlock is an exactly stored interaction block. For diagonal
// blocks rows and cols are the same slice.
type denseBlock struct {
	rows, cols []int
	r0, c0     int       // cluster-order positions of rows[0] and cols[0]
	v          []float64 // len(rows) x len(cols), row-major
}

// DiagBlock holds one diagonal leaf cluster: the element indices and
// the exact dense block over them (len(Idx)² row-major). The returned
// slices are views into the operator — callers must not modify them.
type DiagBlock struct {
	Idx []int
	V   []float64
}

// nearField is the exact part of a compressed operator: the dense
// diagonal leaf blocks and off-diagonal near blocks, and the element →
// diagonal-block index for O(1) Diag lookups. It also carries what
// every apply needs (apply.go): the cluster order and a pool of
// workspaces. Both operators embed it.
type nearField struct {
	n          int
	diag, near []denseBlock
	// elemBlock/elemPos locate each element's diagonal block.
	elemBlock, elemPos []int32
	evals              int        // kernel entries evaluated into the blocks
	perm               []int      // the partition's cluster order
	work               *sync.Pool // of *applyWork, sized by initWork
}

// fillNear evaluates the partition's diagonal and near blocks
// concurrently through entry (already symmetric). Each block depends
// only on its own index lists and lands at its partition position, so
// the result is identical at every worker count.
func (p *blockPartition) fillNear(entry func(i, j int) float64, workers int) nearField {
	f := nearField{n: len(p.elems), perm: p.perm}
	f.diag = make([]denseBlock, len(p.diag))
	parallelItems(workers, len(p.diag), func(bi int) {
		idx := p.diag[bi].Elems
		n := len(idx)
		v := make([]float64, n*n)
		for a := 0; a < n; a++ {
			v[a*n+a] = entry(idx[a], idx[a])
			for c := a + 1; c < n; c++ {
				e := entry(idx[a], idx[c])
				v[a*n+c] = e
				v[c*n+a] = e
			}
		}
		r0 := p.start[p.diag[bi]]
		f.diag[bi] = denseBlock{rows: idx, cols: idx, r0: r0, c0: r0, v: v}
	})
	f.near = make([]denseBlock, len(p.near))
	parallelItems(workers, len(p.near), func(bi int) {
		ta, tb := p.near[bi][0], p.near[bi][1]
		rows, cols := ta.Elems, tb.Elems
		m, n := len(rows), len(cols)
		v := make([]float64, m*n)
		for a, i := range rows {
			for c, j := range cols {
				v[a*n+c] = entry(i, j)
			}
		}
		f.near[bi] = denseBlock{rows: rows, cols: cols, r0: p.start[ta], c0: p.start[tb], v: v}
	})
	f.elemBlock = make([]int32, f.n)
	f.elemPos = make([]int32, f.n)
	for bi, b := range f.diag {
		n := len(b.rows)
		f.evals += n * (n + 1) / 2
		for p, i := range b.rows {
			f.elemBlock[i] = int32(bi)
			f.elemPos[i] = int32(p)
		}
	}
	for _, b := range f.near {
		f.evals += len(b.v)
	}
	return f
}

// Dim returns the operator dimension.
func (f *nearField) Dim() int { return f.n }

// Diag returns the exact diagonal entry L[i][i].
func (f *nearField) Diag(i int) float64 {
	b := &f.diag[f.elemBlock[i]]
	p := int(f.elemPos[i])
	return b.v[p*len(b.cols)+p]
}

// DiagBlocks returns the dense diagonal leaf blocks, the basis of the
// block-Jacobi preconditioner in internal/fasthenry.
func (f *nearField) DiagBlocks() []DiagBlock {
	out := make([]DiagBlock, len(f.diag))
	for i, b := range f.diag {
		out[i] = DiagBlock{Idx: b.rows, V: b.v}
	}
	return out
}

// emitUpper passes an entry to fn with its indices ordered i < j.
func emitUpper(fn func(i, j int, v float64), i, j int, v float64) {
	if i < j {
		fn(i, j, v)
	} else {
		fn(j, i, v)
	}
}

// eachUpper visits the strictly-upper-triangle entries of the diagonal
// and near blocks once each, in block order.
func (f *nearField) eachUpper(fn func(i, j int, v float64)) {
	for bi := range f.diag {
		b := &f.diag[bi]
		nc := len(b.cols)
		for a := range b.rows {
			for bidx := a + 1; bidx < nc; bidx++ {
				emitUpper(fn, b.rows[a], b.cols[bidx], b.v[a*nc+bidx])
			}
		}
	}
	for bi := range f.near {
		b := &f.near[bi]
		nc := len(b.cols)
		for a, i := range b.rows {
			for bidx, j := range b.cols {
				emitUpper(fn, i, j, b.v[a*nc+bidx])
			}
		}
	}
}

// stats returns the dense half of the compression summary; the
// operator adds its far field and the combined kernel-evaluation total.
func (f *nearField) stats() CompressStats {
	st := CompressStats{
		N:                  f.n,
		DiagBlocks:         len(f.diag),
		NearBlocks:         len(f.near),
		DenseFloats:        f.n * f.n,
		NearKernelEvals:    f.evals,
		DenseKernelEntries: f.n * (f.n + 1) / 2,
	}
	for _, b := range f.diag {
		st.StoredFloats += len(b.v)
	}
	for _, b := range f.near {
		st.StoredFloats += len(b.v)
	}
	return st
}
