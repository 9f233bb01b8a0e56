package fft

import (
	"flag"
	"math"
	"strings"
	"testing"
	"time"

	"soifft/internal/ref"
)

// TestTwiddlesComeFromTables: the Go stages and the naive six-step read
// their twiddles from tables built at plan time. A kernel that recomputes
// them per element through math.Sincos stays within every accuracy bound
// (a per-butterfly expi is bit-identical to the table), so only time shows
// it. Two within-run ratios, each the best of several interleaved rounds in
// this one process, so a host that drifts moves numerator and denominator
// alike:
//
//   - a portable radix-2 pass at s = 1, m = 512, per butterfly, against one
//     expi call: 0.2–0.3 on a 2-vCPU Xeon host with the table, 1.4–1.6 with
//     an expi per butterfly;
//   - SixStepNaive.Forward against SixStepOpt.Forward at 2^12 on one worker,
//     cache-resident so that memory traffic from other processes barely
//     moves it: 1.5–1.8 with the full twiddle table, 4.6–6.7 when step 3
//     computes each twiddle instead.
//
// It times code, so tier-1 skips it; it runs when -run names it, which
// scripts/check.sh does.
func TestTwiddlesComeFromTables(t *testing.T) {
	if !strings.Contains(flag.Lookup("test.run").Value.String(), "TestTwiddlesComeFromTables") {
		t.Skip("times the twiddle paths; run it by name: go test ./internal/fft -run TestTwiddlesComeFromTables")
	}
	const (
		rounds      = 15
		m           = 512
		stageCalls  = 400
		expiCalls   = 40000
		sixCalls    = 48
		maxStage    = 0.7 // radix-2 butterfly / expi call
		maxSixSteps = 3.0 // naive / opt
	)
	st := &stage{r: 2, m: m, s: 1, tw: twiddleTable(Forward, m, 2*m)}
	x := ref.RandomVector(2*m, 1)
	y := make([]complex128, 2*m)
	const n = 1 << 12
	naive, err := NewSixStep(n, SixStepNaive, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewSixStep(n, SixStepOpt, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := ref.RandomVector(n, 2)
	dst := make([]complex128, n)
	var sink complex128
	best := func(cur *time.Duration, f func()) {
		start := time.Now()
		f()
		if d := time.Since(start); *cur == 0 || d < *cur {
			*cur = d
		}
	}
	var tStage, tExpi, tNaive, tOpt time.Duration
	for round := 0; round < rounds; round++ {
		best(&tStage, func() {
			for i := 0; i < stageCalls; i++ {
				stageRadix2(st, y, x)
			}
		})
		best(&tExpi, func() {
			for i := 0; i < expiCalls; i++ {
				sink += expi(-2 * math.Pi * float64(i%m) / (2 * m))
			}
		})
		best(&tNaive, func() {
			for i := 0; i < sixCalls; i++ {
				naive.Forward(dst, src)
			}
		})
		best(&tOpt, func() {
			for i := 0; i < sixCalls; i++ {
				opt.Forward(dst, src)
			}
		})
	}
	perButterfly := float64(tStage) / (stageCalls * m)
	perExpi := float64(tExpi) / expiCalls
	stageRatio := perButterfly / perExpi
	sixRatio := float64(tNaive) / float64(tOpt)
	t.Logf("radix-2 pass: %.2f ns/butterfly, expi %.2f ns/call, ratio %.2f (bound %.1f); sink %v",
		perButterfly, perExpi, stageRatio, maxStage, real(sink) != 0)
	t.Logf("six-step at n=%d: naive %v, opt %v per %d calls, ratio %.2f (bound %.1f)",
		n, tNaive, tOpt, sixCalls, sixRatio, maxSixSteps)
	if stageRatio > maxStage {
		t.Errorf("radix-2 pass costs %.2f expi calls per butterfly, bound %.1f: is a stage computing its twiddles?", stageRatio, maxStage)
	}
	if sixRatio > maxSixSteps {
		t.Errorf("naive six-step costs %.2f× the optimized one, bound %.1f: is its twiddle pass computing twiddles?", sixRatio, maxSixSteps)
	}
}
