//go:build amd64 && !amd64.v3

// The apply kernels keep one accumulation order and never fuse a
// multiply into an add. The operator build (kernel integrals, ACA, the
// interpolative bases) makes no such promise: on a target with fused
// multiply-adds the compiler may use them there, which changes the
// stored blocks and with them every hash. amd64 below v3 has none.

package fasthenry

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"inductance101/internal/geom"
)

// applyHash is FNV-64a over the little-endian bits of each value (v+0
// folds -0 into +0, so a sign-of-zero difference does not count).
func applyHash(vals ...[]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range vals[0] {
		for _, v := range vals {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v[i]+0))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestCompressedApplyPinned pins the bits of both compressed
// operators' real and complex apply on three geometries, at one and two
// build workers. Any change to the kernels' arithmetic order moves a
// hash. The values were recorded from the straightforward complex128
// loops the split kernels replaced, so they also pin the split kernels
// to those loops' bits.
func TestCompressedApplyPinned(t *testing.T) {
	type want struct{ applyC, apply uint64 }
	cases := []struct {
		name              string
		build             func() (*geom.Layout, []int, Port, [][2]string)
		opt               Options
		iterative, nested want
	}{
		{"bus98", func() (*geom.Layout, []int, Port, [][2]string) { return loopBus(98) },
			Options{NW: 4, NT: 2},
			want{0x5388560e2bb62722, 0xfcf990c58bd9bc52}, want{0x226f2fab9ce8f484, 0x252a8590b8742e37}},
		{"bus256", func() (*geom.Layout, []int, Port, [][2]string) { return loopBus(256) },
			Options{NW: 4, NT: 2},
			want{0x052a8982a1167417, 0xf1de29e4f3e1fa23}, want{0xa2a3d653a6a92aa3, 0x99fbdb3bacbfdb6b}},
		{"plane16", func() (*geom.Layout, []int, Port, [][2]string) { return microstripOverPlane(t) },
			Options{MaxPerSide: 2, PlaneNW: 16},
			want{0x9e3e0d76634b15b7, 0x0eb1d11074c981cc}, want{0x8bceddb2c6e12318, 0xf655abb7a932434f}},
	}
	for _, tc := range cases {
		l, segs, port, shorts := tc.build()
		for _, m := range []struct {
			mode SolveMode
			want want
		}{{ModeIterative, tc.iterative}, {ModeNested, tc.nested}} {
			for _, workers := range []int{1, 2} {
				opt := tc.opt
				opt.Mode, opt.Workers = m.mode, workers
				s, err := NewSolver(l, segs, port, shorts, 2e10, opt)
				if err != nil {
					t.Fatal(err)
				}
				op := s.compressedOp()
				n := op.Dim()
				rng := rand.New(rand.NewSource(7))
				x := make([]complex128, n)
				xr := make([]float64, n)
				for i := range x {
					x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
					xr[i] = real(x[i])
				}
				y := make([]complex128, n)
				op.ApplyCTo(y, x)
				yr, yi := make([]float64, n), make([]float64, n)
				for i, v := range y {
					yr[i], yi[i] = real(v), imag(v)
				}
				yReal := make([]float64, n)
				op.ApplyTo(yReal, xr)
				got := want{applyHash(yr, yi), applyHash(yReal)}
				if got != m.want {
					t.Errorf("%s %v workers=%d: hashes (ApplyCTo %#016x, ApplyTo %#016x), want (%#016x, %#016x)",
						tc.name, m.mode, workers, got.applyC, got.apply, m.want.applyC, m.want.apply)
				}
			}
		}
	}
}
