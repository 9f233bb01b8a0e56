package faultcomm

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"soifft/internal/mpi"
)

// tvec builds a deterministic payload distinguishable by (seed, index).
func tvec(n, seed int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(float64(seed*1000+i), float64(seed))
	}
	return v
}

const watchdog = 30 * time.Second

// TestLosslessDupDelivery: with every message duplicated, the receiver
// still sees each payload exactly once, in stream order.
func TestLosslessDupDelivery(t *testing.T) {
	sched := NewSchedule(7, 2*time.Second)
	sched.Dup = 1
	rep, err := Run(2, sched, watchdog, func(c mpi.Comm) error {
		const n = 8
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 5, tvec(4, i)); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			got, err := c.Recv(0, 5)
			if err != nil {
				return err
			}
			want := tvec(4, i)
			for j := range want {
				if got[j] != want[j] {
					return fmt.Errorf("message %d corrupted or out of order", i)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("dup schedule must be survivable: %v\n%s", rep.Errs, rep.Trace())
	}
	if !strings.Contains(rep.Trace(), "kind=dup") {
		t.Fatalf("no dup event injected:\n%s", rep.Trace())
	}
}

// TestReorderResequenced: with every send held back one operation, the
// receive side's sequence numbers restore stream order.
func TestReorderResequenced(t *testing.T) {
	sched := NewSchedule(3, 2*time.Second)
	sched.Reorder = 1
	rep, err := Run(2, sched, watchdog, func(c mpi.Comm) error {
		const n = 5
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 3, tvec(2, i)); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			got, err := c.Recv(0, 3)
			if err != nil {
				return err
			}
			if got[0] != tvec(2, i)[0] {
				return fmt.Errorf("resequencing failed at message %d", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("reorder schedule must be survivable: %v\n%s", rep.Errs, rep.Trace())
	}
	if !strings.Contains(rep.Trace(), "kind=reorder") {
		t.Fatalf("no reorder event injected:\n%s", rep.Trace())
	}
}

// TestCrashIsTypedAndPropagates: the crashed rank's operations fail with
// ErrCrashed; peers blocked on it resolve to typed errors via the abort,
// not by waiting out their deadlines (so this test is fast).
func TestCrashIsTypedAndPropagates(t *testing.T) {
	sched := NewSchedule(11, 10*time.Second) // deadline long: abort must beat it
	sched.CrashRank, sched.CrashOp = 1, 2
	start := time.Now()
	rep, err := Run(3, sched, watchdog, func(c mpi.Comm) error {
		// A ring of exchanges with enough rounds to cross the crash op.
		for round := 0; round < 4; round++ {
			next := (c.Rank() + 1) % 3
			prev := (c.Rank() + 2) % 3
			if _, err := mpi.SendRecv(c, next, tvec(4, round), prev, 9+round); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hang {
		t.Fatalf("crash run hung:\n%s", rep.Trace())
	}
	if !errors.Is(rep.Errs[1], ErrCrashed) {
		t.Fatalf("crashed rank returned %v, want ErrCrashed", rep.Errs[1])
	}
	var te *mpi.TransportError
	if !errors.As(rep.Errs[1], &te) {
		t.Fatalf("crash error is not a *mpi.TransportError: %v", rep.Errs[1])
	}
	for r, e := range rep.Errs {
		if e != nil && !Typed(e) {
			t.Fatalf("rank %d: non-typed error %v\n%s", r, e, rep.Trace())
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("crash propagation took %v; abort should beat the 10s deadline", elapsed)
	}
	if !strings.Contains(rep.Trace(), "kind=crash") {
		t.Fatalf("no crash event logged:\n%s", rep.Trace())
	}
}

// TestWatchdogConvertsHang: an unbounded receive of a dropped message is a
// real hang (OpTimeout disabled); the watchdog must detect it, abort the
// world, and report Hang.
func TestWatchdogConvertsHang(t *testing.T) {
	sched := NewSchedule(1, 0) // no per-op deadline: a drop hangs the receiver
	sched.Drop = 1
	rep, err := Run(2, sched, 200*time.Millisecond, func(c mpi.Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 1, tvec(4, 0))
		}
		_, err := c.Recv(0, 1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Hang {
		t.Fatalf("watchdog did not fire; errs=%v", rep.Errs)
	}
	if rep.Errs[1] == nil || !Typed(rep.Errs[1]) {
		t.Fatalf("hung rank resolved to %v, want a typed error from the abort", rep.Errs[1])
	}
}

// TestDeadlineBoundsDrop: the same dropped message with OpTimeout set
// resolves to a typed timeout within the deadline — no watchdog needed.
func TestDeadlineBoundsDrop(t *testing.T) {
	sched := NewSchedule(1, 100*time.Millisecond)
	sched.Drop = 1
	rep, err := Run(2, sched, watchdog, func(c mpi.Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 1, tvec(4, 0))
		}
		_, err := c.Recv(0, 1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hang {
		t.Fatalf("bounded receive hung:\n%s", rep.Trace())
	}
	if !errors.Is(rep.Errs[1], mpi.ErrTimeout) && !errors.Is(rep.Errs[1], mpi.ErrAborted) {
		t.Fatalf("receiver of dropped message got %v, want timeout (or abort fallout)", rep.Errs[1])
	}
}

// TestTraceByteIdentical: same seed, same program, twice — the canonical
// trace must match byte for byte (the replayability contract).
func TestTraceByteIdentical(t *testing.T) {
	sched := NewSchedule(42, 2*time.Second)
	sched.Delay, sched.MaxDelay = 0.4, time.Millisecond
	sched.Dup = 0.4
	sched.Reorder = 0.4
	sched.SlowRank, sched.SlowPerKElem = 1, 50*time.Microsecond
	prog := func(c mpi.Comm) error {
		send := make([][]complex128, c.Size())
		for i := range send {
			send[i] = tvec(8, c.Rank()*10+i)
		}
		_, err := mpi.AllToAll(c, send)
		return err
	}
	var traces [2]string
	for i := range traces {
		rep, err := Run(4, sched, watchdog, prog)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("lossless run %d failed: %v\n%s", i, rep.Errs, rep.Trace())
		}
		traces[i] = rep.Trace()
	}
	if traces[0] != traces[1] {
		t.Fatalf("same seed produced different traces:\n--- run 0\n%s\n--- run 1\n%s", traces[0], traces[1])
	}
	if !strings.Contains(traces[0], "kind=") {
		t.Fatalf("no events injected — trace determinism test is vacuous:\n%s", traces[0])
	}
}

// TestTracePrefixUnderCrash: runs cut short at scheduling-dependent points
// must still agree event-for-event on the prefix each rank logged.
func TestTracePrefixUnderCrash(t *testing.T) {
	sched := NewSchedule(5, time.Second)
	sched.Delay, sched.MaxDelay = 0.5, time.Millisecond
	sched.CrashRank, sched.CrashOp = 2, 3
	prog := func(c mpi.Comm) error {
		for round := 0; round < 6; round++ {
			next := (c.Rank() + 1) % 4
			prev := (c.Rank() + 3) % 4
			if _, err := mpi.SendRecv(c, next, tvec(4, round), prev, 20+round); err != nil {
				return err
			}
		}
		return nil
	}
	logs := make([]map[int][]Event, 2)
	for i := range logs {
		rep, err := Run(4, sched, watchdog, prog)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Hang {
			t.Fatalf("crash run hung:\n%s", rep.Trace())
		}
		logs[i] = eventsByRank(rep)
	}
	for r := 0; r < 4; r++ {
		a, b := logs[0][r], logs[1][r]
		if len(a) > len(b) {
			a, b = b, a
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("rank %d event %d differs between runs: %v vs %v", r, i, a[i], b[i])
			}
		}
	}
}

// eventsByRank snapshots each endpoint's injected-event log.
func eventsByRank(rep *Report) map[int][]Event {
	out := make(map[int][]Event)
	rep.inj.mu.Lock()
	eps := append([]*Endpoint(nil), rep.inj.eps...)
	rep.inj.mu.Unlock()
	for _, e := range eps {
		e.mu.Lock()
		out[e.rank] = append([]Event(nil), e.log...)
		e.mu.Unlock()
	}
	return out
}

func TestTypedVocabulary(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain", errors.New("wrong answer"), false},
		{"transport", &mpi.TransportError{Op: "recv", Peer: 1, Tag: 2, Err: mpi.ErrTimeout}, true},
		{"wrapped timeout", fmt.Errorf("x: %w", mpi.ErrTimeout), true},
		{"wrapped closed", fmt.Errorf("x: %w", mpi.ErrClosed), true},
		{"wrapped aborted", fmt.Errorf("x: %w", mpi.ErrAborted), true},
		{"crashed", &mpi.TransportError{Op: "send", Peer: 0, Tag: 1, Err: ErrCrashed}, true},
	}
	for _, tc := range cases {
		if got := Typed(tc.err); got != tc.want {
			t.Errorf("Typed(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestScheduleString(t *testing.T) {
	s := NewSchedule(9, time.Second)
	s.Drop = 0.1
	if got := s.String(); !strings.Contains(got, "seed=9") || !strings.Contains(got, "drop=0.1") {
		t.Errorf("schedule string missing fields: %q", got)
	}
	if s.Lossless() {
		t.Errorf("drop schedule reported lossless")
	}
	if NewSchedule(1, 0).Lossless() != true {
		t.Errorf("fault-free schedule must be lossless")
	}
}
