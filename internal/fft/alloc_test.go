//go:build !race

// Allocation counts are measured without the race detector: under it
// sync.Pool drops a quarter of all Puts at random, so the pools miss and the
// figure measures the detector, not the kernels.

package fft

import (
	"testing"

	"soifft/internal/ref"
)

// TestPlanForwardAllocatesNothing: once warm, a transform draws all of its
// scratch from the plan's pools — the Stockham ping-pong buffer, the generic
// radices' butterfly inputs (a stack array) and Bluestein's length-m
// convolution buffer (m up to 4n: a fresh one per call would cost 512 MiB
// at a served prime length near 2^24).
func TestPlanForwardAllocatesNothing(t *testing.T) {
	for _, n := range []int{
		1009,  // Bluestein over a 2048-point power-of-two plan
		65537, // Bluestein over a 2^18-point plan
		5005,  // 5*7*11*13: every generic radix
	} {
		p := MustPlan(n)
		x := ref.RandomVector(n, int64(n))
		dst := make([]complex128, n)
		p.Forward(dst, x) // warm the pools
		if a := testing.AllocsPerRun(10, func() { p.Forward(dst, x) }); a != 0 {
			t.Errorf("n=%d: %v allocations per warm Forward, want 0", n, a)
		}
	}
}
