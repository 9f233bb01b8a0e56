package faultcomm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"soifft/internal/cvec"
	"soifft/internal/dist"
	"soifft/internal/fft"
	"soifft/internal/mpi"
	"soifft/internal/ref"
	"soifft/internal/soi"
	"soifft/internal/window"
)

// The sweep: every fault kind x every distributed program x several seeds,
// each run under the watchdog, asserting the no-hang invariant — a
// verified-correct result or a typed error on every rank before the
// deadline; never a hang, never a silently wrong answer. A failure dumps
// the replayable fault trace.

// errWrong is deliberately NOT in the typed vocabulary: a rank returns it
// when its verified output is wrong, so a silent corruption surfaces as an
// invariant violation instead of a green run.
var errWrong = errors.New("verification failed: wrong answer")

const (
	sweepWorld    = 4
	sweepDeadline = 400 * time.Millisecond
)

// program is one self-verifying SPMD workload: it checks its own outputs
// and returns errWrong on any mismatch.
type program struct {
	name string
	run  func(c mpi.Comm) error
}

func progSendRecv(c mpi.Comm) error {
	p := c.Size()
	r := c.Rank()
	for round := 0; round < 3; round++ {
		next, prev := (r+1)%p, (r+p-1)%p
		got, err := mpi.SendRecv(c, next, tvec(16, r*10+round), prev, 40+round)
		if err != nil {
			return err
		}
		want := tvec(16, prev*10+round)
		for i := range want {
			if got[i] != want[i] {
				return errWrong
			}
		}
	}
	return nil
}

func progAllToAll(c mpi.Comm) error {
	p := c.Size()
	r := c.Rank()
	send := make([][]complex128, p)
	for i := range send {
		send[i] = tvec(4, r*100+i)
	}
	recv, err := mpi.AllToAll(c, send)
	if err != nil {
		return err
	}
	for i := range recv {
		want := tvec(4, i*100+r)
		if len(recv[i]) != len(want) {
			return errWrong
		}
		for j := range want {
			if recv[i][j] != want[j] {
				return errWrong
			}
		}
	}
	return nil
}

// progAllToAllInto runs the caller-buffer all-to-all through the harness
// (the Comm fallback: the endpoint's Recv hands over the envelope's
// payload, nothing is recycled) and then the plain one, and requires the
// two to agree element for element with what every peer sent.
func progAllToAllInto(c mpi.Comm) error {
	p := c.Size()
	r := c.Rank()
	send := make([][]complex128, p)
	into := make([][]complex128, p)
	for i := range send {
		send[i] = tvec(4+i, r*100+i)
		into[i] = make([]complex128, 4+r)
	}
	if err := mpi.AllToAllInto(c, send, into); err != nil {
		return err
	}
	recv, err := mpi.AllToAll(c, send)
	if err != nil {
		return err
	}
	for i := range recv {
		want := tvec(4+r, i*100+r)
		if len(recv[i]) != len(want) {
			return errWrong
		}
		for j := range want {
			if recv[i][j] != want[j] || into[i][j] != want[j] {
				return errWrong
			}
		}
	}
	return nil
}

// Shared fixture: one SOI plan, one input and its reference spectrum for
// every sweep run (CT and SOI transform the same vector).
var soiFixture struct {
	once sync.Once
	plan *soi.Plan
	x    []complex128 // full input
	want []complex128 // reference spectrum
	err  error
}

func soiSetup() error {
	soiFixture.once.Do(func() {
		p := window.Params{N: 448, Segments: 4, NMu: 8, DMu: 7, B: 72}
		plan, err := soi.NewPlan(p, soi.DefaultOptions())
		if err != nil {
			soiFixture.err = err
			return
		}
		soiFixture.plan = plan
		soiFixture.x = ref.RandomVector(p.N, 777)
		soiFixture.want = make([]complex128, p.N)
		fft.MustPlan(p.N).Forward(soiFixture.want, soiFixture.x)
	})
	return soiFixture.err
}

func progSOI(c mpi.Comm) error {
	d, err := dist.NewSOIFromPlan(c, soiFixture.plan)
	if err != nil {
		return err
	}
	localN := d.LocalN()
	r := c.Rank()
	dst := make([]complex128, localN)
	if err := d.Forward(dst, soiFixture.x[r*localN:(r+1)*localN]); err != nil {
		return err
	}
	// SOI is an approximate algorithm: verify against the designed alias
	// bound (~1e-11 here), far below any injected corruption.
	if e := cvec.RelErrL2(dst, soiFixture.want[r*localN:(r+1)*localN]); e > 1e-6 {
		return fmt.Errorf("%w: rank %d relative error %g", errWrong, r, e)
	}
	return nil
}

// progCT runs the Cooley-Tukey baseline, the three all-to-alls of Fig 1, on
// the SOI fixture's input (N = 448: P^2 | N on the sweep's world) and
// verifies every rank's block of the spectrum.
func progCT(c mpi.Comm) error {
	ct, err := dist.NewCT(c, len(soiFixture.x), 1)
	if err != nil {
		return err
	}
	localN := ct.LocalN()
	r := c.Rank()
	dst := make([]complex128, localN)
	if err := ct.Forward(dst, soiFixture.x[r*localN:(r+1)*localN]); err != nil {
		return err
	}
	// CT is exact up to rounding; the threshold SOI is held to is still
	// far below any injected corruption.
	if e := cvec.RelErrL2(dst, soiFixture.want[r*localN:(r+1)*localN]); e > 1e-6 {
		return fmt.Errorf("%w: rank %d relative error %g", errWrong, r, e)
	}
	return nil
}

func sweepPrograms(t *testing.T) []program {
	t.Helper()
	if err := soiSetup(); err != nil {
		t.Fatalf("SOI fixture: %v", err)
	}
	return []program{
		{"SendRecv", progSendRecv},
		{"AllToAll", progAllToAll},
		{"AllToAllInto", progAllToAllInto},
		{"CTForward", progCT},
		{"SOIForward", progSOI},
	}
}

// schedFor builds the sweep schedule for one fault kind and seed.
func schedFor(kind Kind, seed int64) Schedule {
	s := NewSchedule(seed, sweepDeadline)
	switch kind {
	case KindDrop:
		s.Drop = 0.15
	case KindDelay:
		s.Delay, s.MaxDelay = 0.35, 2*time.Millisecond
	case KindDup:
		s.Dup = 0.35
	case KindReorder:
		s.Reorder = 0.35
	case KindCrash:
		s.CrashRank = sweepWorld - 1
		s.CrashOp = int(1 + seed%5)
	case KindSlow:
		s.SlowRank, s.SlowPerKElem = 1, 200*time.Microsecond
	}
	return s
}

// checkInvariant returns a description of the first no-hang-invariant
// violation in rep, or "" when the run is clean: no hang, and every rank
// either verified a correct result (nil) or returned a typed error.
// Lossless schedules additionally demand a clean run on every rank.
func checkInvariant(rep *Report, lossless bool) string {
	if rep.Hang {
		return "watchdog fired: run hung"
	}
	for r, err := range rep.Errs {
		if err == nil {
			continue
		}
		if lossless {
			return fmt.Sprintf("lossless schedule but rank %d failed: %v", r, err)
		}
		if !Typed(err) {
			return fmt.Sprintf("rank %d returned a non-typed error: %v", r, err)
		}
	}
	return ""
}

// TestFaultSweep is the acceptance sweep: >= 3 seeds x every fault kind x
// every distributed program, each under the watchdog.
func TestFaultSweep(t *testing.T) {
	progs := sweepPrograms(t)
	kinds := []Kind{KindDrop, KindDelay, KindDup, KindReorder, KindCrash, KindSlow}
	seeds := []int64{1, 2, 3}
	for _, kind := range kinds {
		for _, seed := range seeds {
			for _, prog := range progs {
				name := fmt.Sprintf("%s/seed%d/%s", kind, seed, prog.name)
				t.Run(name, func(t *testing.T) {
					sched := schedFor(kind, seed)
					rep, err := Run(sweepWorld, sched, watchdog, prog.run)
					if err != nil {
						t.Fatal(err)
					}
					if v := checkInvariant(rep, sched.Lossless()); v != "" {
						t.Fatalf("%s\nfault trace (replay with %s):\n%s", v, sched, rep.Trace())
					}
				})
			}
		}
	}
}

// TestCrashSweepAllRanksResolve pins the crash-propagation guarantee
// explicitly: when a rank crashes mid-collective, EVERY rank resolves —
// the crashed one to ErrCrashed, the others to nil or a typed error.
func TestCrashSweepAllRanksResolve(t *testing.T) {
	progs := sweepPrograms(t)
	for _, prog := range progs {
		t.Run(prog.name, func(t *testing.T) {
			sched := schedFor(KindCrash, 2)
			sched.CrashOp = 0 // first op: every program crashes before its first message
			rep, err := Run(sweepWorld, sched, watchdog, prog.run)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Hang {
				t.Fatalf("hang:\n%s", rep.Trace())
			}
			if !errors.Is(rep.Errs[sched.CrashRank], ErrCrashed) {
				t.Fatalf("crash rank resolved to %v, want ErrCrashed\n%s",
					rep.Errs[sched.CrashRank], rep.Trace())
			}
			for r, e := range rep.Errs {
				if e != nil && !Typed(e) {
					t.Fatalf("rank %d: non-typed %v\n%s", r, e, rep.Trace())
				}
			}
		})
	}
}

// TestTamperProvesHarnessLive injects the intentionally unhandled fault
// shape — payload corruption, which no envelope or deadline can mask — and
// demonstrates that the sweep's invariant checker catches it. If this test
// ever finds tampered runs passing verification, the sweep is vacuous.
func TestTamperProvesHarnessLive(t *testing.T) {
	progs := sweepPrograms(t)
	caught := 0
	for _, prog := range progs {
		sched := NewSchedule(1, sweepDeadline)
		sched.Tamper = 1 // corrupt every payload
		rep, err := Run(sweepWorld, sched, watchdog, prog.run)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Hang {
			t.Fatalf("%s: tamper run hung:\n%s", prog.name, rep.Trace())
		}
		v := checkInvariant(rep, false)
		wrong := false
		for _, e := range rep.Errs {
			if errors.Is(e, errWrong) {
				wrong = true
			}
		}
		if wrong && v == "" {
			t.Fatalf("%s: wrong answer slipped past the invariant checker", prog.name)
		}
		if v != "" {
			caught++
		}
	}
	if caught == 0 {
		t.Fatal("tampering every payload was never caught — the verification harness is dead")
	}
	t.Logf("tamper caught by verification in %d/%d programs", caught, len(progs))
}
