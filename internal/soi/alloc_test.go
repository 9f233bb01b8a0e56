//go:build !race

// The allocation budget is measured without the race detector: under it
// sync.Pool drops a quarter of all Puts at random, so the plan's and the FFT
// kernels' pools (deliberately) miss and the figure measures the detector,
// not the data path.

package soi

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"soifft/internal/ref"
)

// TestForwardAllocationBudget: after warm-up a transform allocates nothing
// in proportion to N. The budget per Forward and per Inverse is 1 KiB (a
// call measures 320 bytes) at N = 7*2^12 and at the repository benchmark's
// N = 7*2^16, where the pooled working set is 0.6 MB and 9.5 MB: one
// N/8-element buffer made per call reads 57 KB and 0.9 MB.
//
// The test holds GOMAXPROCS at 1 from before the plan is built. With two
// Ps a pooled working set Put on one P is now and then missed by a Get on
// the other (sync.Pool's private slot), and its refill reads as tens of KB
// to 1 MB per call: a runtime effect, not the data path's.
func TestForwardAllocationBudget(t *testing.T) {
	const (
		warmup = 4
		rounds = 16
		budget = 1 << 10
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, logN := range []int{12, 16} {
		p := benchParams(logN)
		t.Run(fmt.Sprintf("N=%d", p.N), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Workers = 1
			pl, err := NewPlan(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			x := ref.RandomVector(p.N, 7)
			out := make([]complex128, p.N)
			for _, tr := range []struct {
				name      string
				transform func(dst, src []complex128) error
			}{
				{"Forward", pl.Forward},
				{"Inverse", pl.Inverse},
			} {
				op := func() {
					if err := tr.transform(out, x); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < warmup; i++ {
					op()
				}
				perOp := func() uint64 {
					// A collection during the measured rounds empties the
					// pools, and their refill would read as a per-call
					// allocation: hold the collector off for those rounds only.
					defer debug.SetGCPercent(debug.SetGCPercent(-1))
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					for i := 0; i < rounds; i++ {
						op()
					}
					runtime.ReadMemStats(&after)
					return (after.TotalAlloc - before.TotalAlloc) / rounds
				}()
				t.Logf("%s: %d bytes allocated per call", tr.name, perOp)
				if perOp > budget {
					t.Errorf("%s: %d bytes allocated per call, budget %d", tr.name, perOp, budget)
				}
			}
		})
	}
}

// TestPooledWorkingSet: what a plan retains per concurrent transform at the
// repository benchmark's N = 7*2^16 is the segment vectors, the finish
// scratch and a tail of a few chunks, 9.5 MB, where the staged pipeline
// held the extended input, u, t and the scratch, 25.2 MB.
func TestPooledWorkingSet(t *testing.T) {
	const budget = 10 << 20
	pl, err := NewPlan(benchParams(16), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sc := pl.scratch.New().(*scratch)
	if bytes := 16 * (len(sc.tail) + len(sc.t) + len(sc.y) + len(sc.conj)); bytes > budget {
		t.Errorf("pooled working set %d bytes, budget %d", bytes, budget)
	} else {
		t.Logf("pooled working set %d bytes (tail %d elements)", bytes, len(sc.tail))
	}
}
