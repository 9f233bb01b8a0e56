//go:build !race

// Timed without the race detector, whose instrumentation multiplies the
// design's inner loops by a factor that says nothing about the algorithm.

package window

import (
	"fmt"
	"testing"
	"time"
)

// benchParams is the benchmark geometry (N = 7*2^16, mu = 8/7, B = 72) cut
// into s segments.
func benchParams(s int) Params {
	return Params{N: 7 << 16, Segments: s, NMu: 8, DMu: 7, B: 72}
}

// TestDesignStaysCheap fails if the search goes back to sampling the
// prototype per frequency probe: the 64-segment design took 8-10 s that way
// and takes about 0.13 s with each candidate sampled once and one phase table
// per frequency, so 2 s separates the two on any machine that runs the suite.
func TestDesignStaysCheap(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped under -short")
	}
	start := time.Now()
	if _, err := Design(benchParams(64)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("64-segment design took %v, limit 2s", d)
	} else {
		t.Logf("64-segment design took %v", d)
	}
}

func BenchmarkDesign(b *testing.B) {
	for _, s := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("S=%d", s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Design(benchParams(s)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
