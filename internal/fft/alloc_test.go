package fft

import (
	"testing"

	"soifft/internal/ref"
)

// TestPlanForwardAllocatesNothing: once warm, a transform draws all of its
// scratch from the plan's free lists — the Stockham ping-pong buffer, the odd
// radices' leg pairs (stack arrays) and Bluestein's length-m
// convolution buffer (m up to 4n: a fresh one per call would cost 512 MiB
// at a served prime length near 2^24).
func TestPlanForwardAllocatesNothing(t *testing.T) {
	for _, n := range []int{
		1009,  // Bluestein over a 2048-point power-of-two plan
		65537, // Bluestein over a 2^18-point plan
		5005,  // 5*7*11*13: every odd radix of stageOdd
	} {
		p := MustPlan(n)
		x := ref.RandomVector(n, int64(n))
		dst := make([]complex128, n)
		p.Forward(dst, x) // warm the free lists
		if a := testing.AllocsPerRun(10, func() { p.Forward(dst, x) }); a != 0 {
			t.Errorf("n=%d: %v allocations per warm Forward, want 0", n, a)
		}
	}

	// The six-step reads its src in place and stages tiles and rows through
	// its free lists; the lane batch ping-pongs through its own. Each variant's
	// ceiling is its per-call set-up on one worker — the naive variant's
	// par.For closures — so scratch made per row or per tile shows as
	// hundreds.
	const n = 1 << 16
	x := ref.RandomVector(n, 1)
	dst := make([]complex128, n)
	ceiling := map[Variant]float64{SixStepNaive: 3, SixStepOpt: 0}
	for _, v := range AllVariants {
		s, err := NewSixStep(n, v, 1)
		if err != nil {
			t.Fatal(err)
		}
		s.Forward(dst, x)
		if a := testing.AllocsPerRun(10, func() { s.Forward(dst, x) }); a > ceiling[v] {
			t.Errorf("SixStep %v n=%d: %v allocations per warm Forward, ceiling %v", v, n, a, ceiling[v])
		}
	}
	lb, err := NewLaneBatch(1024, 8)
	if err != nil {
		t.Fatal(err)
	}
	y := ref.RandomVector(1024*8, 2)
	out := make([]complex128, 1024*8)
	lb.forwardFrom(out, y, 8)
	if a := testing.AllocsPerRun(10, func() { lb.forwardFrom(out, y, 8) }); a != 0 {
		t.Errorf("LaneBatch 1024x8: %v allocations per warm forwardFrom, want 0", a)
	}
}
