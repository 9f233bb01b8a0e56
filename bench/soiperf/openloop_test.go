package main

import (
	"testing"
	"time"
)

func TestScheduleHasNoDrift(t *testing.T) {
	start := time.Unix(1000, 0)
	s := newSchedule(350, start)
	for i := 0; i < 350*60; i++ {
		n, due := s.peek()
		if n != i {
			t.Fatalf("peek number = %d, want %d", n, i)
		}
		want := start.Add(time.Duration(float64(i) / 350 * 1e9))
		if d := due.Sub(want); d < -time.Nanosecond || d > time.Nanosecond {
			t.Fatalf("request %d due %v off", i, d)
		}
		s.next()
	}
	if _, due := s.peek(); due.Sub(start) != time.Minute {
		t.Errorf("request 21000 at 350/s is due after %v, want 1m0s", due.Sub(start))
	}
	if newSchedule(0, start) != nil {
		t.Error("rate 0 must mean a closed loop (nil schedule)")
	}
}

// An open-loop request is timed from the instant it was due, not from when
// the generator got round to sending it, and the difference is kept as lag.
func TestLatencyIsTimedFromDue(t *testing.T) {
	start := time.Unix(1000, 0)
	l := &load{cfg: &runConfig{}, spec: serveSpec{rate: 100}, chk: newChecker(exactTol, false), windowStart: start}
	due := start.Add(10 * time.Millisecond)
	sent := due.Add(3 * time.Millisecond) // the generator was 3 ms late
	end := sent.Add(2 * time.Millisecond) // the server took 2 ms
	l.done(0, due, sent, end, nil, false, false, nil, nil)
	if got := l.log.ms[0]; got != 5 {
		t.Errorf("latency = %g ms, want 5 (from due, not from sent)", got)
	}
	if got := l.lags[0]; got != 3 {
		t.Errorf("lag = %g ms, want 3", got)
	}
	if l.attempted != 1 || l.failed != 0 {
		t.Errorf("attempted, failed = %d, %d; want 1, 0", l.attempted, l.failed)
	}
}

// The best sub-window is reported, and a slow sub-window does not move it.
func TestWindowLogReportsBestSubWindow(t *testing.T) {
	var w windowLog
	w.addMark(0, 0)
	for k := 1; k <= 3; k++ {
		for i := 1; i <= 10; i++ {
			ms := 2.0
			if k == 2 {
				ms = 9 // the neighbours' turn
			}
			w.add(time.Duration(k-1)*time.Second+time.Duration(i)*100*time.Millisecond, ms)
		}
		cpu := time.Duration(k) * 30 * time.Millisecond
		if k >= 2 {
			cpu += 60 * time.Millisecond
		}
		w.addMark(time.Duration(k)*time.Second, cpu)
	}
	res := &result{Metrics: map[string]float64{}}
	w.fill(res)
	want := map[string]float64{"time_ms_p50": 2, "throughput_tps": 10, "cpu_ms_per_op": 3}
	for name, v := range want {
		if got := res.Metrics[name]; got != v {
			t.Errorf("%s = %g, want %g", name, got, v)
		}
	}
	if res.Samples != 30 {
		t.Errorf("samples = %d, want 30", res.Samples)
	}
}

func TestCheckerCountsWrongOutputs(t *testing.T) {
	in, err := noiseInputs(1, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	c := newChecker(exactTol, true)
	got := append([]complex128(nil), in.want[0]...)
	if c.check(got, in.want[0]) {
		t.Error("the corrupted output passed")
	}
	got = append([]complex128(nil), in.want[0]...)
	if !c.check(got, in.want[0]) {
		t.Error("the exact output failed (corruption must happen once)")
	}
	if c.checked != 2 || c.maxErr < 0.5 {
		t.Errorf("checked = %d, worst rel err = %g; want 2 and the corruption's ~1", c.checked, c.maxErr)
	}
	if d := newChecker(exactTol, false); !d.check(got, in.want[0]) || d.accuracyDigits() < 15.9 {
		t.Errorf("a bit-identical answer reads %g digits, want 15.95", d.accuracyDigits())
	}
}
