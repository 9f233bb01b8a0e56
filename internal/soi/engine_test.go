package soi

import (
	"flag"
	"strings"
	"testing"
	"time"

	"soifft/internal/fft"
	"soifft/internal/ref"
	"soifft/internal/window"
)

// TestSegmentEngineChoice names the stage-4 engine a plan is built with: the
// plain fft.Plan for the benchmark's M' = 2^16 (1 MiB) under the default
// options, the six-step when the caller names SixStepNaive, and the six-step
// for a segment vector above plainSegmentBytes (M' = 9*2^17, 18 MiB; the
// plan is built around an undesigned filter, since only stage 4's tables
// depend on M').
func TestSegmentEngineChoice(t *testing.T) {
	win, err := window.Design(benchParams(16))
	if err != nil {
		t.Fatal(err)
	}
	big := window.Params{N: 1 << 21, Segments: 2, NMu: 9, DMu: 8, B: 72}
	bigWin := &window.Filter{Params: big, Demod: make([]complex128, big.M())}
	if mp := big.MPrime(); mp*16 <= plainSegmentBytes {
		t.Fatalf("M' = %d (%d bytes) is not above plainSegmentBytes = %d", mp, mp*16, plainSegmentBytes)
	}
	for _, tc := range []struct {
		name string
		win  *window.Filter
		v    fft.Variant
		want string
	}{
		{"M'=2^16 default", win, DefaultOptions().FFTVariant, "plain"},
		{"M'=2^16 naive", win, fft.SixStepNaive, "six-step"},
		{"M'=9*2^17 default", bigWin, fft.SixStepOpt, "six-step"},
	} {
		pl, err := NewPlanFromFilter(tc.win, Options{FFTVariant: tc.v, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if (pl.fm == nil) == (pl.six == nil) {
			t.Fatalf("%s: plan holds both engines or neither", tc.name)
		}
		got := "six-step"
		if pl.fm != nil {
			got = "plain"
		}
		if got != tc.want {
			t.Errorf("%s: plan runs the %s engine, want %s", tc.name, got, tc.want)
		}
	}
}

// TestSegmentEnginePays holds the engine choice to the measurement it rests
// on: at the benchmark's M' = 2^16, FinishSegment on the plain plan
// (fft.Plan.ForwardDemodulate, its last pass storing into the segment) must
// take at most 1/minGain of FinishSegment on the optimized six-step
// (demodulation fused, then the copy), one worker each, over the eight
// segments of one Forward's segment vectors, as Forward calls it. (The plain
// plan overwrites the vectors; transforming those values again is the same
// work.) The times are the best of several interleaved rounds in this one
// process, so a host that drifts moves both alike. Over 30 runs on a 2-vCPU
// AVX-512 Xeon the ratio read 1.17 at the lowest, 1.19–1.25 between the
// quartiles (median 1.22) and 1.45 at the highest; minGain is that lowest
// reading less the inter-quartile spread, rounded down. A plain engine that
// only matches the six-step reads about 1.0.
//
// It times code, so tier-1 skips it; it runs when -run names it, which
// scripts/check.sh does.
func TestSegmentEnginePays(t *testing.T) {
	if !strings.Contains(flag.Lookup("test.run").Value.String(), "TestSegmentEnginePays") {
		t.Skip("times the segment engines; run it by name: go test ./internal/soi -run TestSegmentEnginePays")
	}
	const (
		rounds  = 15
		passes  = 3 // over the eight segments, per round
		minGain = 1.10
	)
	win, err := window.Design(benchParams(16))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewPlanFromFilter(win, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plain.fm == nil {
		t.Fatal("the benchmark geometry does not run on the plain plan")
	}
	six := &Plan{Win: win}
	if six.six, err = fft.NewSixStep(win.MPrime(), fft.SixStepOpt, 1); err != nil {
		t.Fatal(err)
	}
	demodFull := make([]complex128, win.MPrime())
	copy(demodFull, win.Demod)
	six.six.SetDemod(demodFull)

	mp, m, segs := win.MPrime(), win.M(), win.Segments
	vecs := ref.RandomVector(segs*mp, 1)
	scratch := make([]complex128, mp)
	dst := make([]complex128, win.N)
	engines := []*Plan{plain, six}
	best := make([]time.Duration, len(engines))
	for round := 0; round < rounds; round++ {
		for i, pl := range engines {
			start := time.Now()
			for c := 0; c < passes; c++ {
				for f := 0; f < segs; f++ {
					pl.FinishSegment(dst[f*m:(f+1)*m], vecs[f*mp:(f+1)*mp], scratch)
				}
			}
			if el := time.Since(start); best[i] == 0 || el < best[i] {
				best[i] = el
			}
		}
	}
	per := func(i int) time.Duration { return best[i] / (passes * time.Duration(segs)) }
	gain := float64(best[1]) / float64(best[0])
	t.Logf("M'=%d: plain %v, six-step %v per segment: %.2fx (bound %.2f)", mp, per(0), per(1), gain, minGain)
	if gain < minGain {
		t.Errorf("the plain plan is %.2fx the six-step at M'=%d, under the %.2fx the engine choice rests on", gain, mp, minGain)
	}
}
