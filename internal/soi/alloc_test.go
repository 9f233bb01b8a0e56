//go:build !race

// The allocation budget is measured without the race detector: under it
// sync.Pool drops a quarter of all Puts at random, so the plan's and the FFT
// kernels' pools (deliberately) miss and the figure measures the detector,
// not the data path.

package soi

import (
	"runtime"
	"runtime/debug"
	"testing"

	"soifft/internal/ref"
)

// TestForwardAllocationBudget: after warm-up a transform allocates nothing
// in proportion to N. At the repository benchmark's parameters scaled to
// N = 7*2^12 the pooled working set is 0.6 MB (tail + t + y; Inverse adds
// its conjugated input, 0.46 MB); the budget per Forward and per Inverse is
// 64 KiB, as for dist.SOI.
func TestForwardAllocationBudget(t *testing.T) {
	const (
		warmup = 4
		rounds = 16
		budget = 64 << 10
	)
	p := benchParams(12)
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
			// A collection during the measured rounds empties the pools,
			// and their refill would read as a per-call allocation: hold
			// the collector off for those rounds only.
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
