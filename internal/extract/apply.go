package extract

import "sync"

// Apply kernels shared by both compressed operators.
//
// The operators store real blocks and are applied to complex vectors
// (the FastHenry branch-impedance operator multiplies jωL into complex
// currents). Promoting a real entry to a complex128 with zero imaginary
// part and multiplying spends six flops where two are needed, so an
// apply instead splits x into separate real and imaginary arrays and
// runs every block as a real kernel over both columns at once. The
// arrays are in cluster order (blockPartition.perm): every diagonal,
// near, far and basis block then reads and writes one contiguous range,
// with no index load per entry.
//
// The kernels are bit-identical to that promoted complex product taken
// in the same order, up to the sign of a zero: each output receives the
// same addends in the same sequence, and each product is converted to
// float64 before it is added, which forbids the compiler from fusing
// the multiply into the add. Multi-row passes only share loads; they
// never reassociate a sum.

// cvec is a complex vector split into its real and imaginary parts.
type cvec struct{ re, im []float64 }

func makeCvec(n int) cvec {
	buf := make([]float64, 2*n)
	return cvec{re: buf[:n:n], im: buf[n:]}
}

func (v cvec) slice(lo, hi int) cvec { return cvec{re: v.re[lo:hi], im: v.im[lo:hi]} }

func (v cvec) clear() {
	clear(v.re)
	clear(v.im)
}

// applyWork is the workspace of one apply call: x and y = L*x in
// cluster order, and the operator's far-field scratch.
type applyWork struct {
	x, y, scratch cvec
}

// farField is the operator-specific half of an apply: the admissible
// blocks, accumulated into w.y after the near field.
type farField interface {
	applyFar(w *applyWork)
}

// initWork sizes the operator's pool of apply workspaces; scratch is the
// length of the far field's scratch vector.
func (f *nearField) initWork(scratch int) {
	n := f.n
	f.work = &sync.Pool{New: func() any {
		return &applyWork{x: makeCvec(n), y: makeCvec(n), scratch: makeCvec(scratch)}
	}}
}

// applyC computes dst = L*x over complex vectors: it gathers x into
// cluster order, applies the near field and then far, and scatters the
// result back. dst and x must not alias and have length Dim.
func (f *nearField) applyC(far farField, dst, x []complex128) {
	if len(dst) != f.n || len(x) != f.n {
		panic("extract: compressed operator ApplyCTo dimension mismatch")
	}
	w := f.work.Get().(*applyWork)
	for p, i := range f.perm {
		w.x.re[p], w.x.im[p] = real(x[i]), imag(x[i])
	}
	f.applyNear(w)
	far.applyFar(w)
	for p, i := range f.perm {
		dst[i] = complex(w.y.re[p], w.y.im[p])
	}
	f.work.Put(w)
}

// applyR computes dst = L*x over real vectors through the same kernel,
// with a zero imaginary column.
func (f *nearField) applyR(far farField, dst, x []float64) {
	if len(dst) != f.n || len(x) != f.n {
		panic("extract: compressed operator ApplyTo dimension mismatch")
	}
	w := f.work.Get().(*applyWork)
	for p, i := range f.perm {
		w.x.re[p] = x[i]
	}
	clear(w.x.im)
	f.applyNear(w)
	far.applyFar(w)
	for p, i := range f.perm {
		dst[i] = w.y.re[p]
	}
	f.work.Put(w)
}

// applyNear sets w.y to the diagonal blocks times w.x, then adds each
// near block applied both ways.
func (f *nearField) applyNear(w *applyWork) {
	w.y.clear()
	for bi := range f.diag {
		b := &f.diag[bi]
		mulAdd(w.y.slice(b.r0, b.r0+len(b.rows)), b.v, w.x.slice(b.r0, b.r0+len(b.rows)))
	}
	for bi := range f.near {
		b := &f.near[bi]
		r1, c1 := b.r0+len(b.rows), b.c0+len(b.cols)
		symAdd(w.y.slice(b.r0, r1), w.y.slice(b.c0, c1), b.v, w.x.slice(b.r0, r1), w.x.slice(b.c0, c1))
	}
}

// mulAdd accumulates y += M*x for the row-major len(y) x len(x) block
// m. Each row's dot product runs left to right from zero and is then
// added to y; two rows share a pass over x.
func mulAdd(y cvec, m []float64, x cvec) {
	rows, n := len(y.re), len(x.re)
	xr, xi := x.re[:n], x.im[:n]
	a := 0
	for ; a+1 < rows; a += 2 {
		m0, m1 := m[a*n:(a+1)*n], m[(a+1)*n:(a+2)*n]
		var s0r, s0i, s1r, s1i float64
		for j, v0 := range m0 {
			v1 := m1[j]
			s0r += float64(v0 * xr[j])
			s0i += float64(v0 * xi[j])
			s1r += float64(v1 * xr[j])
			s1i += float64(v1 * xi[j])
		}
		y.re[a] += s0r
		y.im[a] += s0i
		y.re[a+1] += s1r
		y.im[a+1] += s1i
	}
	if a < rows {
		var sr, si float64
		for j, v := range m[a*n : (a+1)*n] {
			sr += float64(v * xr[j])
			si += float64(v * xi[j])
		}
		y.re[a] += sr
		y.im[a] += si
	}
}

// mulTAdd accumulates y += Mᵀ*x for the row-major len(x) x len(y) block
// m, one row of m at a time: y += m[a]*x[a] for a in order. Two rows
// share a pass over y.
func mulTAdd(y cvec, m []float64, x cvec) {
	rows, n := len(x.re), len(y.re)
	yr, yi := y.re[:n], y.im[:n]
	a := 0
	for ; a+1 < rows; a += 2 {
		m0, m1 := m[a*n:(a+1)*n], m[(a+1)*n:(a+2)*n]
		x0r, x0i, x1r, x1i := x.re[a], x.im[a], x.re[a+1], x.im[a+1]
		for j, v0 := range m0 {
			v1 := m1[j]
			yr[j] = yr[j] + float64(v0*x0r) + float64(v1*x1r)
			yi[j] = yi[j] + float64(v0*x0i) + float64(v1*x1i)
		}
	}
	if a < rows {
		xar, xai := x.re[a], x.im[a]
		for j, v := range m[a*n : (a+1)*n] {
			yr[j] += float64(v * xar)
			yi[j] += float64(v * xai)
		}
	}
}

// symAdd applies the row-major len(xa) x len(xb) off-diagonal block m
// both ways — ya += M*xb and yb += Mᵀ*xa — in one pass over m, with the
// accumulation order of mulAdd and mulTAdd. The row and column ranges
// must not overlap.
func symAdd(ya, yb cvec, m []float64, xa, xb cvec) {
	rows, n := len(xa.re), len(xb.re)
	xr, xi := xb.re[:n], xb.im[:n]
	yr, yi := yb.re[:n], yb.im[:n]
	a := 0
	for ; a+1 < rows; a += 2 {
		m0, m1 := m[a*n:(a+1)*n], m[(a+1)*n:(a+2)*n]
		x0r, x0i, x1r, x1i := xa.re[a], xa.im[a], xa.re[a+1], xa.im[a+1]
		var s0r, s0i, s1r, s1i float64
		for j, v0 := range m0 {
			v1 := m1[j]
			s0r += float64(v0 * xr[j])
			s0i += float64(v0 * xi[j])
			s1r += float64(v1 * xr[j])
			s1i += float64(v1 * xi[j])
			yr[j] = yr[j] + float64(v0*x0r) + float64(v1*x1r)
			yi[j] = yi[j] + float64(v0*x0i) + float64(v1*x1i)
		}
		ya.re[a] += s0r
		ya.im[a] += s0i
		ya.re[a+1] += s1r
		ya.im[a+1] += s1i
	}
	if a < rows {
		xar, xai := xa.re[a], xa.im[a]
		var sr, si float64
		for j, v := range m[a*n : (a+1)*n] {
			sr += float64(v * xr[j])
			si += float64(v * xi[j])
			yr[j] += float64(v * xar)
			yi[j] += float64(v * xai)
		}
		ya.re[a] += sr
		ya.im[a] += si
	}
}
