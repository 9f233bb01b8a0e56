package main

import (
	"os"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {95, 10}, {100, 10}, {1, 1}} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %g, want 5", got)
	}
	if lo, hi := minOf([]float64{3, 1, 2}), maxOf([]float64{3, 1, 2}); lo != 1 || hi != 3 {
		t.Errorf("minOf, maxOf = %g, %g, want 1, 3", lo, hi)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it: p95 from 200 samples, p99 only from 1000.
func TestHighestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if supported(199, 95) || !supported(200, 95) {
		t.Error("p95 must need exactly 200 samples")
	}
}

func TestParseStatCPU(t *testing.T) {
	// The command name may hold spaces and parentheses.
	stat := "4242 (soi (fft) d) S 1 4242 4242 0 -1 4194304 100 0 0 0 150 25 0 0 20 0 5 0 1000 1 2 3"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 175 * clockTick; got != want {
		t.Errorf("parseStatCPU = %v, want %v (utime 150 + stime 25 ticks)", got, want)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("parseStatCPU accepted text without a command field")
	}
	if _, err := parseStatCPU("1 (x) S 1 2"); err == nil {
		t.Error("parseStatCPU accepted a truncated line")
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\tsoifftd\nVmPeak:\t  999 kB\nVmHWM:\t   81924 kB\nVmRSS:\t 500 kB\n"
	if kb, ok := parseStatusKB(status, "VmHWM"); !ok || kb != 81924 {
		t.Errorf("VmHWM = %d, %v; want 81924, true", kb, ok)
	}
	if _, ok := parseStatusKB(status, "VmSwap"); ok {
		t.Error("found a key that is not there")
	}
}

// Both CPU clocks must advance by about the CPU time a busy loop takes.
func TestCPUDeltas(t *testing.T) {
	self0 := selfCPU()
	proc0, err := procCPU(os.Getpid())
	if err != nil {
		t.Skipf("no /proc here: %v", err)
	}
	for start := time.Now(); time.Since(start) < 200*time.Millisecond; {
	}
	self := selfCPU() - self0
	proc1, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	proc := proc1 - proc0
	for name, d := range map[string]time.Duration{"getrusage": self, "/proc stat": proc} {
		if d < 100*time.Millisecond || d > 2*time.Second {
			t.Errorf("%s delta over a 200 ms busy loop = %v", name, d)
		}
	}
	if _, err := procPeakRSSMB(os.Getpid()); err != nil {
		t.Errorf("procPeakRSSMB: %v", err)
	}
}

func TestSelfTimesUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: the union covers 10..60
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent's end
		{Name: "leaf", Start: 12, End: 20, Parent: 1},
	}
	self := selfTimesMS(spans, 0)
	if got, want := self["op"][0]*1e6, 100.0-50-10; got != want {
		t.Errorf("op self = %g ns, want %g", got, want)
	}
	if got, want := self["a"][0]*1e6, 30.0-8; got != want {
		t.Errorf("a self = %g ns, want %g", got, want)
	}
	if n := len(selfTimesMS(spans, 4)); n != 1 {
		t.Errorf("from=4 kept %d names, want 1", n)
	}
	var off *tracer
	if id := off.begin("x", -1, 0); id != -1 {
		t.Errorf("a nil tracer recorded a span")
	}
	off.end(-1)
}
