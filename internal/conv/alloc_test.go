//go:build !race

// Counted without the race detector, as every allocation ceiling in the
// module is: its runtime may allocate on its own behalf.

package conv

import (
	"testing"

	"soifft/internal/ref"
)

// TestApplyAllocationCeilings pins each variant's allocations per Apply on
// one worker: the per-call set-up of its par.For body (the closure, the
// Interchange variant's 1 + NMu lane-tap slices, the Buffered variant's
// staging), never a per-chunk or per-lane allocation. A variable declared
// outside the body and written inside it moves to the heap with the closure
// and raises the count, as does scratch made per iteration.
func TestApplyAllocationCeilings(t *testing.T) {
	f := design(t, smallParams())
	c0, c1 := 0, f.Chunks()
	x := ref.RandomVector(InputLen(f, c0, c1), 1)
	u := make([]complex128, OutputLen(f, c0, c1))
	ceiling := map[Variant]float64{Baseline: 1, Interchange: 10, Buffered: 2}
	eachKernel(t, func(t *testing.T) {
		for _, v := range AllVariants {
			if a := testing.AllocsPerRun(10, func() { Apply(v, f, u, x, c0, c1, 1) }); a > ceiling[v] {
				t.Errorf("%v: %v allocations per Apply on one worker, ceiling %v", v, a, ceiling[v])
			}
		}
	})
}
