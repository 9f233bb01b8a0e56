// Package faultcomm is a deterministic fault-injection harness for the
// distributed SOI path: an mpi.Comm middleware that wraps any transport
// (in-process or TCP) and injects transport faults from a seeded schedule
// — message drop, bounded delay, duplication, reordering within a
// (src, tag) stream, rank crash at operation k, slow-link throttling, and
// payload tampering (an intentionally unsurvivable shape that proves the
// verification harness is live).
//
// The middleware is simultaneously the hardening layer that makes the
// faults survivable: every message travels in an envelope carrying a
// per-(peer, tag)-stream sequence number, the receive side discards
// duplicates and resequences early arrivals, and every receive is bounded
// by the schedule's per-op deadline (via mpi.DeadlineRecver). Under it the
// distributed programs obey the no-hang invariant the sweep tests assert:
// a run either produces the correct result or surfaces a typed error on
// every affected rank before the deadline — never a hang, never a silently
// wrong answer. (Tampering violates it by design: the envelope carries no
// integrity check, so a corrupted payload flows through undetected and
// must be caught by the result verifier.)
//
// # Determinism and the fault trace
//
// Injection decisions are a pure function of (seed, rank, op index): each
// rank's k-th operation rolls the same dice in every run, independent of
// goroutine scheduling. Each endpoint logs its injected faults in op
// order, and Trace renders all ranks' logs in a canonical form, so two
// runs with the same seed and the same per-rank operation sequences
// produce byte-identical traces. (A run that aborts mid-flight may cut a
// rank's sequence short at a scheduling-dependent point; the events it did
// log are still identical to the longer run's prefix.) Tests dump the
// trace on failure, turning any sweep failure into a replayable schedule.
package faultcomm

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"soifft/internal/mpi"
)

// ErrCrashed is the typed cause carried by every operation a crashed rank
// attempts: the injected equivalent of a process death.
var ErrCrashed = errors.New("faultcomm: injected rank crash")

// Kind enumerates the injectable fault shapes.
type Kind uint8

const (
	// KindDrop loses a sent message. Survivable: the receiver's deadline
	// converts the missing message into a typed error.
	KindDrop Kind = iota + 1
	// KindDelay holds a sent message for a bounded, deterministic
	// duration. Survivable: within the deadline the result is correct.
	KindDelay
	// KindDup delivers a sent message twice. Survivable: the envelope's
	// sequence number makes the second copy discardable.
	KindDup
	// KindReorder holds a sent message back until after the sender's next
	// send, swapping wire order. Survivable: the receive side resequences
	// by envelope sequence number.
	KindReorder
	// KindCrash kills a rank at a fixed operation index: that operation
	// and every later one fail with ErrCrashed and the rank's endpoint
	// closes, as a dead process's sockets would.
	KindCrash
	// KindSlow throttles a rank's sends in proportion to payload size.
	// Survivable within the deadline; a typed timeout beyond it.
	KindSlow
	// KindTamper corrupts a payload in flight. Intentionally NOT
	// survivable — the harness's proof-of-life: the sweep's verifier must
	// catch the wrong answer, or the suite is vacuous.
	KindTamper
)

func (k Kind) String() string {
	switch k {
	case KindDrop:
		return "drop"
	case KindDelay:
		return "delay"
	case KindDup:
		return "dup"
	case KindReorder:
		return "reorder"
	case KindCrash:
		return "crash"
	case KindSlow:
		return "slow"
	case KindTamper:
		return "tamper"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Schedule is a seeded, deterministic fault plan. Probabilities are per
// send operation; every decision derives from (Seed, rank, op index) only.
type Schedule struct {
	Seed int64

	Drop    float64 // probability a send is lost
	Delay   float64 // probability a send is delayed
	Dup     float64 // probability a send is delivered twice
	Reorder float64 // probability a send is held past the next send
	Tamper  float64 // probability a payload is corrupted (unsurvivable)

	MaxDelay time.Duration // upper bound of an injected delay

	CrashRank int // rank to crash (-1 = none)
	CrashOp   int // operation index at which CrashRank dies

	SlowRank     int           // rank with a throttled uplink (-1 = none)
	SlowPerKElem time.Duration // added send latency per 1024 payload elements

	// OpTimeout bounds every wrapped Recv (via the transport's
	// DeadlineRecver support). Zero disables the bound — only safe for
	// lossless schedules.
	OpTimeout time.Duration
}

// Lossless reports whether the schedule can only reorder time, never lose
// information: such runs must produce bit-correct results.
func (s Schedule) Lossless() bool {
	return s.Drop == 0 && s.Tamper == 0 && s.CrashRank < 0
}

func (s Schedule) String() string {
	return fmt.Sprintf("seed=%d drop=%g delay=%g dup=%g reorder=%g tamper=%g maxdelay=%s crash=%d@%d slow=%d/%s optimeout=%s",
		s.Seed, s.Drop, s.Delay, s.Dup, s.Reorder, s.Tamper, s.MaxDelay,
		s.CrashRank, s.CrashOp, s.SlowRank, s.SlowPerKElem, s.OpTimeout)
}

// Event is one injected fault, logged by the endpoint that injected it.
type Event struct {
	Rank, Op  int
	Kind      Kind
	Peer, Tag int
	Elems     int   // payload elements of the affected message
	DurNS     int64 // injected pause (delay, slow) in nanoseconds
}

func (e Event) String() string {
	return fmt.Sprintf("rank=%d op=%d kind=%s peer=%d tag=%d elems=%d dur_ns=%d",
		e.Rank, e.Op, e.Kind, e.Peer, e.Tag, e.Elems, e.DurNS)
}

// Injector owns one schedule and the endpoints wrapped under it.
type Injector struct {
	sched Schedule

	mu  sync.Mutex
	eps []*Endpoint
}

// New creates an injector for the schedule. The zero-valued rank fields of
// Schedule mean rank 0, so callers disabling crash or slow-link must set
// the ranks to -1; NewSchedule returns a Schedule with both disabled.
func New(sched Schedule) *Injector {
	return &Injector{sched: sched}
}

// NewSchedule returns a fault-free schedule with the given seed and per-op
// deadline: crash and slow-link are disabled, all probabilities zero.
func NewSchedule(seed int64, opTimeout time.Duration) Schedule {
	return Schedule{Seed: seed, CrashRank: -1, SlowRank: -1, OpTimeout: opTimeout}
}

// Schedule returns the injector's schedule.
func (in *Injector) Schedule() Schedule { return in.sched }

// Wrap returns c's fault-injecting, hardened endpoint. Each rank must wrap
// its own endpoint exactly once; per-rank operations must be issued
// sequentially (the SPMD discipline every program in this repository
// follows).
func (in *Injector) Wrap(c mpi.Comm) *Endpoint {
	e := &Endpoint{
		in:      in,
		inner:   c,
		rank:    c.Rank(),
		sendSeq: make(map[stream]uint64),
		recvSeq: make(map[stream]uint64),
		stash:   make(map[stashKey][]complex128),
	}
	in.mu.Lock()
	in.eps = append(in.eps, e)
	in.mu.Unlock()
	return e
}

// Trace renders every endpoint's injected-fault log in canonical order
// (schedule header, then ranks ascending, each rank's events in op order).
// Same seed, same per-rank op sequences, same bytes.
func (in *Injector) Trace() string {
	in.mu.Lock()
	eps := append([]*Endpoint(nil), in.eps...)
	in.mu.Unlock()
	sort.Slice(eps, func(i, j int) bool { return eps[i].rank < eps[j].rank })
	var b strings.Builder
	fmt.Fprintf(&b, "faultcomm schedule %s\n", in.sched)
	for _, e := range eps {
		e.mu.Lock()
		log := append([]Event(nil), e.log...)
		ops := e.op
		e.mu.Unlock()
		fmt.Fprintf(&b, "rank %d: %d ops, %d events\n", e.rank, ops, len(log))
		for _, ev := range log {
			fmt.Fprintf(&b, "  %s\n", ev)
		}
	}
	return b.String()
}

// stream identifies a one-directional message stream.
type stream struct{ peer, tag int }

// stashKey addresses an early (reordered) message awaiting its turn.
type stashKey struct {
	src, tag int
	seq      uint64
}

// deferred is a held-back (reorder-injected) outbound message.
type deferred struct {
	dst, tag int
	env      []complex128
}

// Endpoint is one rank's fault-injecting view of its communicator. It
// implements mpi.Comm and mpi.DeadlineRecver.
type Endpoint struct {
	in    *Injector
	inner mpi.Comm
	rank  int

	mu      sync.Mutex
	op      int // operations issued (sends + recvs); crash trigger index
	crashed bool
	sendSeq map[stream]uint64
	recvSeq map[stream]uint64
	stash   map[stashKey][]complex128
	held    []deferred
	log     []Event
}

var (
	_ mpi.Comm           = (*Endpoint)(nil)
	_ mpi.DeadlineRecver = (*Endpoint)(nil)
)

func (e *Endpoint) Rank() int { return e.inner.Rank() }
func (e *Endpoint) Size() int { return e.inner.Size() }

// splitmix64 — the decision hash. Every injection decision is
// splitmix64(seed, rank, op, salt) mapped to [0, 1), so decisions depend
// only on the schedule and the rank's own operation index.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (e *Endpoint) roll(op int, salt uint64) float64 {
	h := mix64(uint64(e.in.sched.Seed) ^ mix64(uint64(e.rank)<<32|salt) ^ mix64(uint64(op)))
	return float64(h>>11) / float64(uint64(1)<<53)
}

// Per-decision salts: distinct dice per (op, decision).
const (
	saltDrop uint64 = iota + 1
	saltDelay
	saltDelayAmt
	saltDup
	saltReorder
	saltTamper
)

// step advances the op counter and applies the crash schedule: if this is
// operation CrashOp on CrashRank, the rank dies — this op and all later
// ones fail with ErrCrashed and the underlying endpoint closes, as the
// sockets of a dead process would. Returns the op index and a non-nil
// error when (now or previously) crashed.
func (e *Endpoint) stepLocked(op string, peer, tag int) (int, error) {
	if e.crashed {
		return e.op, &mpi.TransportError{Op: op, Peer: peer, Tag: tag, Err: ErrCrashed}
	}
	idx := e.op
	e.op++
	s := e.in.sched
	if s.CrashRank == e.rank && idx >= s.CrashOp {
		e.crashed = true
		e.held = nil // a dead process flushes nothing
		e.log = append(e.log, Event{Rank: e.rank, Op: idx, Kind: KindCrash, Peer: peer, Tag: tag})
		err := errors.Join(ErrCrashed, e.inner.Close())
		return idx, &mpi.TransportError{Op: op, Peer: peer, Tag: tag, Err: err}
	}
	return idx, nil
}

// Send injects the schedule's send-side faults around the envelope-stamped
// payload. The endpoint's lock is held throughout (per-rank operations are
// sequential), so injected pauses also serialize, as a slow NIC would.
func (e *Endpoint) Send(dst, tag int, data []complex128) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	op, err := e.stepLocked("send", dst, tag)
	if err != nil {
		return err
	}
	s := e.in.sched

	// Roll every die up front: the decision stream per op is fixed.
	drop := s.Drop > 0 && e.roll(op, saltDrop) < s.Drop
	delay := s.Delay > 0 && e.roll(op, saltDelay) < s.Delay
	delayAmt := time.Duration(e.roll(op, saltDelayAmt) * float64(s.MaxDelay))
	dup := s.Dup > 0 && e.roll(op, saltDup) < s.Dup
	reorder := s.Reorder > 0 && e.roll(op, saltReorder) < s.Reorder
	tamper := s.Tamper > 0 && e.roll(op, saltTamper) < s.Tamper

	k := stream{dst, tag}
	seq := e.sendSeq[k]
	e.sendSeq[k]++
	env := make([]complex128, 1+len(data))
	env[0] = complex(float64(seq), 0)
	copy(env[1:], data)

	if tamper && len(data) > 0 {
		env[1] += complex(1, 1)
		e.log = append(e.log, Event{Rank: e.rank, Op: op, Kind: KindTamper, Peer: dst, Tag: tag, Elems: len(data)})
	}
	if e.rank == s.SlowRank && s.SlowPerKElem > 0 {
		pause := s.SlowPerKElem * time.Duration(1+len(data)/1024)
		e.log = append(e.log, Event{Rank: e.rank, Op: op, Kind: KindSlow, Peer: dst, Tag: tag, Elems: len(data), DurNS: int64(pause)})
		time.Sleep(pause)
	}
	if delay && s.MaxDelay > 0 {
		e.log = append(e.log, Event{Rank: e.rank, Op: op, Kind: KindDelay, Peer: dst, Tag: tag, Elems: len(data), DurNS: int64(delayAmt)})
		time.Sleep(delayAmt)
	}

	switch {
	case drop:
		e.log = append(e.log, Event{Rank: e.rank, Op: op, Kind: KindDrop, Peer: dst, Tag: tag, Elems: len(data)})
	case reorder:
		// Hold this message back; it goes out after the rank's NEXT
		// operation (or at Flush/Close), arriving out of order. The
		// receiver resequences. Releasing at the next op — not only the
		// next send — keeps the fault lossless: a held message can delay
		// its stream but never starve it.
		e.log = append(e.log, Event{Rank: e.rank, Op: op, Kind: KindReorder, Peer: dst, Tag: tag, Elems: len(data)})
		e.held = append(e.held, deferred{dst: dst, tag: tag, env: env})
		return nil
	default:
		if err := e.inner.Send(dst, tag, env); err != nil {
			return err
		}
		if dup {
			e.log = append(e.log, Event{Rank: e.rank, Op: op, Kind: KindDup, Peer: dst, Tag: tag, Elems: len(data)})
			if err := e.inner.Send(dst, tag, env); err != nil {
				return err
			}
		}
	}
	return e.flushHeldLocked()
}

// flushHeldLocked releases reorder-held messages after the current send,
// completing the swap.
func (e *Endpoint) flushHeldLocked() error {
	for len(e.held) > 0 {
		d := e.held[0]
		e.held = e.held[1:]
		if err := e.inner.Send(d.dst, d.tag, d.env); err != nil {
			return err
		}
	}
	return nil
}

// Recv is the hardened receive: it unwraps envelopes, discards duplicates,
// resequences early arrivals per (src, tag) stream, and bounds the whole
// operation by the schedule's OpTimeout.
func (e *Endpoint) Recv(src, tag int) ([]complex128, int, error) {
	var deadline time.Time
	if d := e.in.sched.OpTimeout; d > 0 {
		deadline = time.Now().Add(d)
	}
	return e.RecvDeadline(src, tag, deadline)
}

// RecvDeadline implements mpi.DeadlineRecver. The endpoint's lock is NOT
// held while blocked in the inner receive: programs that overlap
// communication with a helper goroutine (dist.SOI's pipelined exchange)
// must not find their sends wedged behind a blocked receive.
func (e *Endpoint) RecvDeadline(src, tag int, deadline time.Time) ([]complex128, int, error) {
	e.mu.Lock()
	if _, err := e.stepLocked("recv", src, tag); err != nil {
		e.mu.Unlock()
		return nil, 0, err
	}
	// A receive demands progress from the peers, so grant the same in
	// return: release any reorder-held sends before blocking.
	if err := e.flushHeldLocked(); err != nil {
		e.mu.Unlock()
		return nil, 0, err
	}
	for {
		if data, from, ok := e.takeStashedLocked(src, tag); ok {
			e.mu.Unlock()
			return data, from, nil
		}
		e.mu.Unlock()
		var msg []complex128
		var from int
		var err error
		if dr, ok := e.inner.(mpi.DeadlineRecver); ok && !deadline.IsZero() {
			msg, from, err = dr.RecvDeadline(src, tag, deadline)
		} else {
			msg, from, err = e.inner.Recv(src, tag)
		}
		if err != nil {
			return nil, 0, err
		}
		e.mu.Lock()
		if len(msg) < 1 {
			e.mu.Unlock()
			return nil, 0, &mpi.TransportError{Op: "recv", Peer: from, Tag: tag,
				Err: fmt.Errorf("faultcomm: message without sequence envelope")}
		}
		seq := uint64(real(msg[0]))
		k := stream{from, tag}
		switch expect := e.recvSeq[k]; {
		case seq < expect:
			// Duplicate of an already-delivered message: discard.
		case seq > expect:
			// Early (reordered) arrival: stash until its turn.
			e.stash[stashKey{from, tag, seq}] = msg[1:]
		default:
			e.recvSeq[k]++
			e.mu.Unlock()
			return msg[1:], from, nil
		}
	}
}

// takeStashedLocked delivers a stashed message whose turn has come.
func (e *Endpoint) takeStashedLocked(src, tag int) ([]complex128, int, bool) {
	if src != mpi.AnySource {
		k := stashKey{src, tag, e.recvSeq[stream{src, tag}]}
		if data, ok := e.stash[k]; ok {
			delete(e.stash, k)
			e.recvSeq[stream{src, tag}]++
			return data, src, true
		}
		return nil, 0, false
	}
	for k, data := range e.stash {
		if k.tag == tag && k.seq == e.recvSeq[stream{k.src, tag}] {
			delete(e.stash, k)
			e.recvSeq[stream{k.src, tag}]++
			return data, k.src, true
		}
	}
	return nil, 0, false
}

// Flush releases any reorder-held sends without closing the endpoint. The
// harness runner calls it when a rank's program returns, so a held final
// message cannot starve a peer that is still receiving.
func (e *Endpoint) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return nil
	}
	return e.flushHeldLocked()
}

// Close flushes reorder-held messages (an orderly shutdown drains its
// queues; a crash already discarded them) and closes the inner endpoint.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return nil // the crash already closed the inner endpoint
	}
	return errors.Join(e.flushHeldLocked(), e.inner.Close())
}

// Typed reports whether err belongs to the typed failure vocabulary the
// no-hang invariant allows: a transport error, or any error wrapping
// ErrClosed, ErrTimeout, ErrAborted or ErrCrashed. A nil err is not typed.
func Typed(err error) bool {
	var te *mpi.TransportError
	return err != nil && (errors.As(err, &te) ||
		errors.Is(err, mpi.ErrClosed) || errors.Is(err, mpi.ErrTimeout) ||
		errors.Is(err, mpi.ErrAborted) || errors.Is(err, ErrCrashed))
}
