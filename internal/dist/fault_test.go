package dist

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"soifft/internal/cvec"
	"soifft/internal/faultcomm"
	"soifft/internal/mpi"
	"soifft/internal/ref"
	"soifft/internal/soi"
)

// crashInjector builds an injector whose schedule kills rank `rank` at its
// first wrapped operation.
func crashInjector(seed int64, rank int) *faultcomm.Injector {
	sched := faultcomm.NewSchedule(seed, 2*time.Second)
	sched.CrashRank = rank
	sched.CrashOp = 0
	return faultcomm.New(sched)
}

// TestCTForwardCrashTyped crashes one rank of the Cooley-Tukey baseline at
// each of its operations in turn — every send and receive of its three
// all-to-alls — and requires every rank to resolve: the crashed one to
// ErrCrashed, each other one to a typed error or its verified block of the
// spectrum. A rank that indexes the blocks of an exchange that failed
// panics the test binary; one that waits on a dead peer trips the watchdog.
func TestCTForwardCrashTyped(t *testing.T) {
	const world, n = 4, 256
	ops := 3 * 2 * (world - 1) // three all-to-alls of P-1 sends and P-1 receives each
	x := ref.RandomVector(n, 66)
	want := fftRef(x)
	localN := n / world
	for op := 0; op <= ops; op++ {
		sched := faultcomm.NewSchedule(int64(op), 2*time.Second)
		sched.CrashRank, sched.CrashOp = op%world, op
		rep, err := faultcomm.Run(world, sched, 10*time.Second, func(c mpi.Comm) error {
			ct, err := NewCT(c, n, 1)
			if err != nil {
				return err
			}
			r := c.Rank()
			dst := make([]complex128, localN)
			if err := ct.Forward(dst, x[r*localN:(r+1)*localN]); err != nil {
				return err
			}
			if e := cvec.RelErrL2(dst, want[r*localN:(r+1)*localN]); e > 1e-11 {
				return fmt.Errorf("rank %d returned a wrong block: relative error %g", r, e)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Hang {
			t.Fatalf("%s: hang\n%s", sched, rep.Trace())
		}
		for r, e := range rep.Errs {
			switch {
			case op == ops:
				// One past the last operation: the crash never fires.
				if e != nil {
					t.Errorf("%s: rank %d failed with no fault injected: %v", sched, r, e)
				}
			case r == sched.CrashRank:
				if !errors.Is(e, faultcomm.ErrCrashed) {
					t.Errorf("%s: crashed rank resolved to %v, want ErrCrashed\n%s", sched, e, rep.Trace())
				}
			case e != nil && !faultcomm.Typed(e):
				t.Errorf("%s: rank %d: non-typed %v\n%s", sched, r, e, rep.Trace())
			}
		}
	}
}

// TestSOIForwardCrashTyped crashes one rank inside the distributed SOI
// pipeline (ghost exchange + pipelined all-to-all) and requires every other
// rank to unblock with a typed error rather than hang in a collective.
func TestSOIForwardCrashTyped(t *testing.T) {
	const world = 4
	p := testParams(4, 4)
	x := ref.RandomVector(p.N, 33)
	localN := p.N / world
	inj := crashInjector(8, 3)
	start := time.Now()
	err := mpi.Run(world, func(c mpi.Comm) error {
		d, err := NewSOI(inj.Wrap(c), p, soi.DefaultOptions())
		if err != nil {
			return err
		}
		r := c.Rank()
		dst := make([]complex128, localN)
		return d.Forward(dst, x[r*localN:(r+1)*localN])
	})
	if err == nil {
		t.Fatal("distributed SOI with a crashed rank reported success")
	}
	if !faultcomm.Typed(err) {
		t.Fatalf("SOI crash error not typed: %v\ntrace:\n%s", err, inj.Trace())
	}
	if !errors.Is(err, faultcomm.ErrCrashed) && !errors.Is(err, mpi.ErrAborted) &&
		!errors.Is(err, mpi.ErrTimeout) && !errors.Is(err, mpi.ErrClosed) {
		t.Fatalf("SOI crash error outside the sentinel vocabulary: %v", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("crash took %v to resolve", d)
	}
}

// opWatch counts a rank's communicator operations in flight, and those
// begun after the rank's transform returned.
type opWatch struct {
	mpi.Comm
	inFlight, late atomic.Int32
	returned       atomic.Bool
}

func (w *opWatch) enter() func() {
	if w.returned.Load() {
		w.late.Add(1)
	}
	w.inFlight.Add(1)
	return func() { w.inFlight.Add(-1) }
}

func (w *opWatch) Send(dst, tag int, data []complex128) error {
	defer w.enter()()
	return w.Comm.Send(dst, tag, data)
}

func (w *opWatch) Recv(src, tag int) ([]complex128, error) {
	defer w.enter()()
	return w.Comm.Recv(src, tag)
}

// TestForwardJoinsExchangeOnFailure: the pipelined Forward runs exchange
// g+1 while segment g finishes on its own goroutine, and both read the
// working set. Whatever kills the transform — a rank crashing at
// any operation of the ghost exchange or of the four all-to-alls, or
// dropped messages turning receives into timeouts — Forward must not
// return while an operation it started is still in flight, nor start one
// afterwards; otherwise the next transform would reuse buffers a stale
// exchange still reads. Run under -race, with the package's leak gate.
func TestForwardJoinsExchangeOnFailure(t *testing.T) {
	const world = 2
	p := testParams(8, 2) // 4 segments per rank: three overlapped exchanges
	plan, err := soi.NewPlan(p, soi.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	x := ref.RandomVector(p.N, 44)
	localN := p.N / world

	var scheds []faultcomm.Schedule
	for op := 0; op < 12; op++ {
		s := faultcomm.NewSchedule(int64(op), 150*time.Millisecond)
		s.CrashRank, s.CrashOp = op%world, op
		scheds = append(scheds, s)
	}
	for seed := int64(1); seed <= 6; seed++ {
		s := faultcomm.NewSchedule(seed, 150*time.Millisecond)
		s.Drop = 0.2
		scheds = append(scheds, s)
	}
	failed := 0
	for _, sched := range scheds {
		inj := faultcomm.New(sched)
		watches := make([]*opWatch, world)
		err := mpi.Run(world, func(c mpi.Comm) error {
			w := &opWatch{Comm: inj.Wrap(c)}
			watches[c.Rank()] = w
			d, err := NewSOIFromPlan(w, plan)
			if err != nil {
				return err
			}
			r := c.Rank()
			dst := make([]complex128, localN)
			err = d.Forward(dst, x[r*localN:(r+1)*localN])
			if n := w.inFlight.Load(); n != 0 {
				return fmt.Errorf("rank %d: Forward returned (%v) with %d operations in flight", r, err, n)
			}
			w.returned.Store(true)
			return err
		})
		if err != nil {
			failed++
			if !faultcomm.Typed(err) {
				t.Errorf("%s: %v", sched, err)
			}
		}
		for r, w := range watches {
			if n := w.late.Load(); n != 0 {
				t.Errorf("%s: rank %d began %d operations after Forward returned", sched, r, n)
			}
		}
	}
	if failed < len(scheds)/2 {
		t.Errorf("only %d of %d fault schedules made Forward fail: the failure paths are not exercised", failed, len(scheds))
	}
}
