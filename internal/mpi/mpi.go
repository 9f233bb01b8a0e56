// Package mpi provides the message-passing layer the distributed FFTs are
// written against: an MPI-like communicator with point-to-point send/recv
// and the collectives the paper's algorithms need (all-to-all, barrier,
// broadcast, gather). Payloads are vectors of complex128 — the only data
// type 1D FFT traffic carries.
//
// Two real transports implement the Comm interface: an in-process transport
// (one goroutine per rank, used by the cmd tools, examples and the cluster
// simulator) and a TCP transport (full mesh over net.Conn, demonstrating
// that the algorithm layer runs unchanged over a real wire). The simulated
// cluster in internal/cluster wraps a Comm with virtual-time cost
// accounting.
//
// Semantics follow MPI's blocking mode: Send may buffer (the payload is
// copied, the caller may reuse its slice immediately); Recv blocks until a
// matching (source, tag) message arrives. Messages between a given pair
// with the same tag are non-overtaking.
package mpi

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// AnySource matches a message from any rank in Recv.
const AnySource = -1

// Reserved tag space for the generic collectives; user tags must be below
// this and non-negative.
const collectiveTagBase = 1 << 28

// ErrClosed is returned when the world has been shut down.
var ErrClosed = errors.New("mpi: communicator closed")

// Comm is one rank's endpoint.
type Comm interface {
	// Rank returns this process's rank in [0, Size()).
	Rank() int
	// Size returns the number of ranks.
	Size() int
	// Send delivers data to rank dst with the given tag. The data is
	// copied; the caller may reuse the slice immediately.
	Send(dst, tag int, data []complex128) error
	// Recv blocks until a message with the given tag from src (or
	// AnySource) arrives and returns its payload and actual source.
	Recv(src, tag int) ([]complex128, int, error)
	// Close releases the endpoint. Pending Recv calls fail with ErrClosed.
	Close() error
}

// SendRecv performs a simultaneous exchange: send to dst and receive from
// src with the same tag, without deadlocking (the send is buffered).
func SendRecv(c Comm, dst int, sendData []complex128, src, tag int) ([]complex128, error) {
	if err := c.Send(dst, tag, sendData); err != nil {
		return nil, err
	}
	data, _, err := c.Recv(src, tag)
	return data, err
}

// SendRecvInto is SendRecv into a caller-owned buffer: the payload from src
// must hold exactly len(recvData) elements and is written there. A payload
// of any other length is a *TransportError wrapping a *SizeError, and
// recvData is left untouched.
func SendRecvInto(c Comm, dst int, sendData []complex128, src, tag int, recvData []complex128) error {
	if err := c.Send(dst, tag, sendData); err != nil {
		return err
	}
	return recvInto(c, recvData, src, tag)
}

// recvInto receives the next (src, tag) message into dst, which the payload
// must fill exactly. The in-package transports hand out payload-pool
// buffers nothing else references, so once the payload is copied out its
// buffer goes back to the pool; a middleware's Recv result is simply
// dropped, as every Recv caller's is.
func recvInto(c Comm, dst []complex128, src, tag int) error {
	data, from, err := c.Recv(src, tag)
	if err != nil {
		return err
	}
	switch c.(type) {
	case *inprocComm, *TCPNode:
		defer putPayload(data)
	}
	if len(data) != len(dst) {
		return &TransportError{Op: "recv", Peer: from, Tag: tag, Err: &SizeError{Got: len(data), Want: len(dst)}}
	}
	copy(dst, data)
	return nil
}

// payloadPools recycles message payload buffers, one pool per power-of-two
// capacity. The transports take every buffer a message travels in from here
// (the in-process Send's copy, the TCP read loop's decode target); only
// recvInto puts one back, after copying the payload out. A buffer returned
// by a plain Recv belongs to the caller for good and is never recycled.
var payloadPools [bits.UintSize]sync.Pool

func init() {
	for class := range payloadPools {
		payloadPools[class].New = func() any {
			b := make([]complex128, 1<<class)
			return &b
		}
	}
}

// getPayload returns a buffer of n elements whose contents are unspecified.
func getPayload(n int) []complex128 {
	if n == 0 {
		return nil
	}
	class := bits.Len(uint(n - 1)) // smallest class with 1<<class >= n
	return (*payloadPools[class].Get().(*[]complex128))[:n]
}

func putPayload(b []complex128) {
	if c := cap(b); c != 0 && c&(c-1) == 0 {
		b = b[:c]
		payloadPools[bits.Len(uint(c))-1].Put(&b)
	}
}

// DeadlineRecver is the optional per-op deadline extension of Comm. The
// in-process and TCP transports implement it; middlewares (Proxy, the
// fault-injection harness) forward it when their inner transport supports
// it.
type DeadlineRecver interface {
	// RecvDeadline behaves like Recv but fails with a *TransportError
	// wrapping ErrTimeout if no matching message arrives by deadline.
	// A zero deadline means no limit.
	RecvDeadline(src, tag int, deadline time.Time) ([]complex128, int, error)
}

// RecvTimeout receives with a per-op timeout when the transport supports
// deadlines, falling back to a plain (potentially unbounded) Recv when it
// does not. timeout <= 0 means no limit.
func RecvTimeout(c Comm, src, tag int, timeout time.Duration) ([]complex128, int, error) {
	if dr, ok := c.(DeadlineRecver); ok && timeout > 0 {
		return dr.RecvDeadline(src, tag, time.Now().Add(timeout))
	}
	return c.Recv(src, tag)
}

// message is an in-flight payload.
type message struct {
	src, tag int
	data     []complex128
}

// mailbox is an unordered-match message store with blocking receive,
// per-op deadlines and two failure granularities: the whole box (close,
// abort) or a single source (a lost TCP peer). Messages already delivered
// before a failure remain consumable — failure is checked only when no
// match is pending, mirroring a real transport where buffered data
// survives the connection that carried it.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	msgs []message
	err  error         // non-nil: box failed; unmatched ops return it
	dead map[int]error // per-source failure: unmatched recvs from src return it
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(m message) error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.err != nil {
		return mb.err
	}
	mb.msgs = append(mb.msgs, m)
	mb.cond.Broadcast()
	return nil
}

// get blocks until a message matching (src, tag) arrives, the box or the
// source fails, or the deadline (zero = none) passes.
func (mb *mailbox) get(src, tag int, deadline time.Time) ([]complex128, int, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	var timer *time.Timer
	if !deadline.IsZero() {
		// The callback takes the lock before broadcasting so the wakeup
		// cannot slip between a waiter's deadline check and its Wait.
		timer = time.AfterFunc(time.Until(deadline), func() {
			mb.mu.Lock()
			mb.cond.Broadcast()
			mb.mu.Unlock()
		})
		defer timer.Stop()
	}
	for {
		for i := range mb.msgs {
			m := mb.msgs[i]
			if m.tag == tag && (src == AnySource || m.src == src) {
				mb.msgs = append(mb.msgs[:i], mb.msgs[i+1:]...)
				return m.data, m.src, nil
			}
		}
		if mb.err != nil {
			return nil, 0, mb.err
		}
		if src != AnySource {
			if e := mb.dead[src]; e != nil {
				return nil, 0, e
			}
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return nil, 0, ErrTimeout
		}
		mb.cond.Wait()
	}
}

// fail poisons the whole box: pending and future unmatched operations
// return err. The first failure wins.
func (mb *mailbox) fail(err error) {
	mb.mu.Lock()
	if mb.err == nil {
		mb.err = err
	}
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

// markDead records that messages from src will never arrive again:
// unmatched receives naming src return err instead of blocking. Wildcard
// (AnySource) receives are unaffected — they may still be satisfied by
// other sources, and fall to the deadline otherwise.
func (mb *mailbox) markDead(src int, err error) {
	mb.mu.Lock()
	if mb.dead == nil {
		mb.dead = make(map[int]error)
	}
	if mb.dead[src] == nil {
		mb.dead[src] = err
	}
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

func (mb *mailbox) close() { mb.fail(ErrClosed) }

// World is an in-process communicator group: size ranks sharing one address
// space, each typically driven by its own goroutine.
type World struct {
	size      int
	boxes     []*mailbox
	opTimeout atomic.Int64 // default per-Recv deadline in ns; 0 = none
}

// NewWorld creates an in-process world with the given number of ranks.
func NewWorld(size int) (*World, error) {
	if size < 1 {
		return nil, fmt.Errorf("mpi: invalid world size %d", size)
	}
	w := &World{size: size, boxes: make([]*mailbox, size)}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	return w, nil
}

// Comm returns rank r's endpoint.
func (w *World) Comm(r int) Comm {
	if r < 0 || r >= w.size {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", r, w.size))
	}
	return &inprocComm{world: w, rank: r}
}

// SetOpTimeout sets the default per-operation deadline applied to every
// Recv on the world's endpoints (RecvDeadline overrides it per call).
// Zero restores unbounded blocking. Safe to call concurrently.
func (w *World) SetOpTimeout(d time.Duration) { w.opTimeout.Store(int64(d)) }

// Close shuts down every rank's mailbox.
func (w *World) Close() {
	for _, mb := range w.boxes {
		mb.close()
	}
}

// Abort tears the world down because of cause: every rank's pending and
// future unmatched operations fail with an error wrapping both ErrAborted
// and cause. This is the crash-propagation path — one failed rank unblocks
// every in-flight collective cluster-wide instead of leaving the other
// ranks deadlocked (or waiting out their deadlines).
func (w *World) Abort(cause error) {
	err := fmt.Errorf("%w: %w", ErrAborted, cause)
	for _, mb := range w.boxes {
		mb.fail(err)
	}
}

type inprocComm struct {
	world *World
	rank  int
}

func (c *inprocComm) Rank() int { return c.rank }
func (c *inprocComm) Size() int { return c.world.size }

func (c *inprocComm) Send(dst, tag int, data []complex128) error {
	if dst < 0 || dst >= c.world.size {
		return fmt.Errorf("mpi: send to invalid rank %d", dst)
	}
	if tag < 0 {
		return fmt.Errorf("mpi: negative tag %d", tag)
	}
	cp := getPayload(len(data))
	copy(cp, data)
	return c.world.boxes[dst].put(message{src: c.rank, tag: tag, data: cp})
}

func (c *inprocComm) Recv(src, tag int) ([]complex128, int, error) {
	var deadline time.Time
	if d := c.world.opTimeout.Load(); d > 0 {
		deadline = time.Now().Add(time.Duration(d))
	}
	return c.RecvDeadline(src, tag, deadline)
}

// RecvDeadline implements DeadlineRecver: a Recv that fails with a
// *TransportError wrapping ErrTimeout once deadline passes.
func (c *inprocComm) RecvDeadline(src, tag int, deadline time.Time) ([]complex128, int, error) {
	if src != AnySource && (src < 0 || src >= c.world.size) {
		return nil, 0, fmt.Errorf("mpi: recv from invalid rank %d", src)
	}
	data, from, err := c.world.boxes[c.rank].get(src, tag, deadline)
	if errors.Is(err, ErrTimeout) {
		return nil, 0, &TransportError{Op: "recv", Peer: src, Tag: tag, Err: err}
	}
	return data, from, err
}

func (c *inprocComm) Close() error {
	c.world.boxes[c.rank].close()
	return nil
}

// Run drives fn as an SPMD program over a fresh in-process world: one
// goroutine per rank. A rank returning a non-nil error aborts the world,
// so ranks blocked in collectives with the failed rank resolve promptly
// (with an ErrAborted-wrapped error) instead of deadlocking. Run returns
// the lowest-ranked root-cause error — an error that is not abort fallout
// — or, if every error is fallout, the lowest-ranked one.
func Run(size int, fn func(Comm) error) error {
	w, err := NewWorld(size)
	if err != nil {
		return err
	}
	defer w.Close()
	errs := make([]error, size)
	var wg sync.WaitGroup
	wg.Add(size)
	for r := 0; r < size; r++ {
		go func(r int) {
			defer wg.Done()
			if err := fn(w.Comm(r)); err != nil {
				errs[r] = err
				w.Abort(fmt.Errorf("rank %d failed: %w", r, err))
			}
		}(r)
	}
	wg.Wait()
	var first error
	for _, e := range errs {
		if e == nil {
			continue
		}
		if !errors.Is(e, ErrAborted) {
			return e
		}
		if first == nil {
			first = e
		}
	}
	return first
}
