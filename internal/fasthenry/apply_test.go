package fasthenry

import (
	"math/rand"
	"sync"
	"testing"

	"inductance101/internal/extract"
)

// busOperator builds one compressed operator over the nWires loop bus.
func busOperator(tb testing.TB, nWires int, mode SolveMode) extract.LOperator {
	tb.Helper()
	l, segs, port, shorts := loopBus(nWires)
	s, err := NewSolver(l, segs, port, shorts, 2e10, Options{NW: 4, NT: 2, Mode: mode})
	if err != nil {
		tb.Fatal(err)
	}
	return s.compressedOp()
}

func randomComplex(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// TestLOperatorApplyConcurrent applies one shared operator from eight
// goroutines at once, each with its own input, and requires every
// result to equal the serial apply of that input exactly: the pooled
// apply workspaces must never be shared between calls.
func TestLOperatorApplyConcurrent(t *testing.T) {
	const goroutines, rounds = 8, 4
	for _, mode := range []SolveMode{ModeIterative, ModeNested} {
		op := busOperator(t, 98, mode)
		n := op.Dim()
		xs := make([][]complex128, goroutines)
		want := make([][]complex128, goroutines)
		for g := range xs {
			xs[g] = randomComplex(n, int64(g+1))
			want[g] = make([]complex128, n)
			op.ApplyCTo(want[g], xs[g])
		}
		got := make([][]complex128, goroutines)
		var wg sync.WaitGroup
		for g := range xs {
			got[g] = make([]complex128, n)
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for range rounds {
					op.ApplyCTo(got[g], xs[g])
				}
			}(g)
		}
		wg.Wait()
		for g := range got {
			for i := range got[g] {
				if got[g][i] != want[g][i] {
					t.Fatalf("%v goroutine %d: entry %d = %v concurrently, %v serially",
						mode, g, i, got[g][i], want[g][i])
				}
			}
		}
	}
}

// BenchmarkLOperatorApplyC times one complex apply of each compressed
// operator on the 256-wire loop bus (2048 filaments). Run with
// -benchmem: the pooled workspaces make a steady-state apply
// allocation-free.
func BenchmarkLOperatorApplyC(b *testing.B) {
	for _, m := range []struct {
		name string
		mode SolveMode
	}{{"flat", ModeIterative}, {"nested", ModeNested}} {
		b.Run(m.name, func(b *testing.B) {
			op := busOperator(b, 256, m.mode)
			x := randomComplex(op.Dim(), 7)
			dst := make([]complex128, op.Dim())
			op.ApplyCTo(dst, x)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				op.ApplyCTo(dst, x)
			}
		})
	}
}
