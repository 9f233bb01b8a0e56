// Package mpi provides the message-passing layer the distributed FFTs are
// written against: an MPI-like communicator with point-to-point send/recv
// and the collectives the paper's algorithms need (all-to-all, barrier).
// Payloads are vectors of complex128 — the only data type 1D FFT traffic
// carries.
//
// Two real transports implement the Comm interface: an in-process transport
// (one goroutine per rank, used by soifft.Cluster, the cmd tools and the
// examples) and a TCP transport (full mesh over net.Conn, demonstrating that
// the algorithm layer runs unchanged over a real wire). Payloads cross both
// as raw vectors, uncompressed. A middleware may wrap a Comm without
// changing its semantics: internal/faultcomm injects transport faults for
// the robustness tests.
//
// Semantics follow MPI's blocking mode: Send may buffer (the payload is
// copied, the caller may reuse its slice immediately); Recv blocks until a
// matching (source, tag) message arrives. Messages between a given pair
// with the same tag are non-overtaking.
//
// The caller-buffer collectives (AllToAllInto, AllToAllsInto, SendRecvInto)
// post their receives before they send, as MPI_Irecv does: on the two
// transports a message that finds its receive posted crosses user space
// once, the in-process Send copying it straight into the posted buffer and
// the TCP read loop reading its payload there from the socket. A message
// that arrives first waits in a spare buffer of the receiving mailbox and
// is copied when its receive is posted. Every posted receive is completed or withdrawn before
// the call that posted it returns, on every exit path, so no transport
// goroutine writes a caller's buffer after that. Any other Comm (a
// middleware such as internal/faultcomm) gets Recv and one copy.
package mpi

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

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
	// Recv blocks until a message with the given tag from src arrives and
	// returns its payload. There is no wildcard source.
	Recv(src, tag int) ([]complex128, error)
	// Close releases the endpoint. Pending Recv calls fail with ErrClosed.
	Close() error
}

// SendRecv performs a simultaneous exchange: send to dst and receive from
// src with the same tag, without deadlocking (the send is buffered).
func SendRecv(c Comm, dst int, sendData []complex128, src, tag int) ([]complex128, error) {
	if err := c.Send(dst, tag, sendData); err != nil {
		return nil, err
	}
	return c.Recv(src, tag)
}

// SendRecvInto is SendRecv into a caller-owned buffer: the payload from src
// must hold exactly len(recvData) elements and is written there. A payload
// of any other length is a *TransportError wrapping a *SizeError, and
// recvData is left untouched. On the two transports the receive is posted
// before the send.
func SendRecvInto(c Comm, dst int, sendData []complex128, src, tag int, recvData []complex128) error {
	pc, ok := c.(poster)
	if !ok {
		if err := c.Send(dst, tag, sendData); err != nil {
			return err
		}
		return recvInto(c, recvData, src, tag)
	}
	p, err := pc.postRecv(src, tag, recvData)
	if err != nil {
		return err
	}
	if err := c.Send(dst, tag, sendData); err != nil {
		pc.cancelRecv(p)
		return err
	}
	return pc.waitRecv(p)
}

// recvInto receives the next (src, tag) message from a Comm that cannot
// post receives into dst, which the payload must fill exactly. Who else
// holds the buffer Recv returns is unknown here, so it is simply dropped,
// as every Recv caller's is.
func recvInto(c Comm, dst []complex128, src, tag int) error {
	data, err := c.Recv(src, tag)
	if err != nil {
		return err
	}
	if len(data) != len(dst) {
		return sizeError(src, tag, len(data), len(dst))
	}
	copy(dst, data)
	return nil
}

func sizeError(src, tag, got, want int) error {
	return &TransportError{Op: "recv", Peer: src, Tag: tag, Err: &SizeError{Got: got, Want: want}}
}

// poster is the posted-receive side of the two transports. postRecv
// registers dst as the buffer of the next (src, tag) message; waitRecv
// blocks until that receive completes, or withdraws it when the transport's
// deadline passes or the box or the source fails; cancelRecv withdraws it at
// once. Both return only once no transport goroutine will write dst again,
// and either one must be called exactly once per posted receive.
type poster interface {
	postRecv(src, tag int, dst []complex128) (*recvPost, error)
	waitRecv(p *recvPost) error
	cancelRecv(p *recvPost)
}

// DeadlineRecver is the optional per-op deadline extension of Comm. The
// in-process and TCP transports implement it; a middleware (the
// fault-injection harness) forwards it when its inner transport supports
// it.
type DeadlineRecver interface {
	// RecvDeadline behaves like Recv but fails with a *TransportError
	// wrapping ErrTimeout if no matching message arrives by deadline.
	// A zero deadline means no limit.
	RecvDeadline(src, tag int, deadline time.Time) ([]complex128, error)
}

// message is an in-flight payload.
type message struct {
	src, tag int
	data     []complex128
}

// recvPost is a receive posted ahead of its message. A message that
// matches it is written straight into dst: by the in-process Send's copy,
// or by the TCP read loop, which reads the payload there from the socket.
type recvPost struct {
	src, tag int
	dst      []complex128
	state    postState
	err      error // with postDone: the receive failed; dst holds nothing trusted
	// A filler that can block mid-payload (the TCP read loop) leaves its
	// connection here: a waiter that gives up sets abandoned, with its
	// reason in cause, and moves the read deadline into the past, so the
	// filler stops writing dst and discards the rest of the payload.
	stopper   interface{ SetReadDeadline(time.Time) error }
	abandoned bool
	cause     error
}

type postState uint8

const (
	postWaiting postState = iota // in the box's posts, no message yet
	postFilling                  // matched: a filler is writing dst
	postDone                     // completed or withdrawn: nothing writes dst
)

// mailbox is an unordered-match message store with blocking receive,
// posted receives, per-op deadlines and two failure granularities: the
// whole box (close, abort) or a single source (a lost TCP peer). Messages
// already delivered before a failure remain consumable — failure is checked
// only when no match is pending, mirroring a real transport where buffered
// data survives the connection that carried it.
//
// A message and a posted receive meet in one critical section, whichever
// comes second: put, send and the TCP read loop look for a waiting post
// (match) before they queue a message, and post takes a queued message
// before it registers itself. Matching is in
// order on both sides, so messages of one (src, tag) fill posts of that
// (src, tag) in the order they were posted.
type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	msgs  []message
	posts []*recvPost // postWaiting, in posting order
	spare []*recvPost // postDone and released, for reuse
	// bufs holds up to maxSpareBufs payload buffers for messages that
	// arrive before their receive is posted. A buffer comes back when the
	// receive posted later has copied it out; one that a plain Recv hands
	// out is the caller's for good. The list is the box's own, so a buffer
	// returns to where the next early message will look for it.
	bufs [][]complex128
	err  error         // non-nil: box failed; unmatched ops return it
	dead map[int]error // per-source failure: unmatched recvs from src return it
}

// maxSpareBufs bounds what a box keeps of its early messages' buffers: a
// Forward's all-to-all blocks and ghost pieces at the world sizes the
// benchmarks run.
const maxSpareBufs = 8

// takeBuf returns a buffer of n elements whose contents are unspecified: a
// spare one of n's capacity class, or a new one. The class is n rounded up
// to a power of two, so messages of nearby lengths share buffers, and a
// small message never takes a large one that a later block would miss.
func (mb *mailbox) takeBuf(n int) []complex128 {
	if n == 0 {
		return nil
	}
	c := 1 << bits.Len(uint(n-1))
	mb.mu.Lock()
	for i, b := range mb.bufs {
		if cap(b) == c {
			last := len(mb.bufs) - 1
			mb.bufs[i], mb.bufs[last] = mb.bufs[last], nil
			mb.bufs = mb.bufs[:last]
			mb.mu.Unlock()
			return b[:n]
		}
	}
	mb.mu.Unlock()
	return make([]complex128, n, c)
}

// giveBuf returns a buffer takeBuf handed out, once nothing references it.
func (mb *mailbox) giveBuf(b []complex128) {
	if cap(b) == 0 {
		return
	}
	mb.mu.Lock()
	if len(mb.bufs) < maxSpareBufs {
		mb.bufs = append(mb.bufs, b)
	}
	mb.mu.Unlock()
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// takePost removes and returns the first waiting post for (src, tag), or nil.
// The caller holds mb.mu.
func (mb *mailbox) takePost(src, tag int) *recvPost {
	for i, p := range mb.posts {
		if p.src == src && p.tag == tag {
			mb.posts = append(mb.posts[:i], mb.posts[i+1:]...)
			return p
		}
	}
	return nil
}

// match decides, with mb.mu held, what a message of count elements from
// (src, tag) does: it fills the first waiting post, now postFilling (p),
// fails a post of another length, now postDone with a SizeError (p nil,
// matched), or finds none (p nil, !matched).
func (mb *mailbox) match(src, tag, count int) (p *recvPost, matched bool) {
	p = mb.takePost(src, tag)
	if p == nil {
		return nil, false
	}
	if len(p.dst) != count {
		p.err, p.state = sizeError(src, tag, count, len(p.dst)), postDone
		mb.cond.Broadcast()
		return nil, true
	}
	p.state = postFilling
	return p, true
}

// filled marks a postFilling post done with err.
func (mb *mailbox) filled(p *recvPost, err error) {
	mb.mu.Lock()
	p.err, p.state = err, postDone
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

// put delivers a message whose data the box owns (a takeBuf buffer): into a
// waiting post, or onto the queue.
func (mb *mailbox) put(m message) error {
	mb.mu.Lock()
	if mb.err != nil {
		mb.mu.Unlock()
		return mb.err
	}
	p, matched := mb.match(m.src, m.tag, len(m.data))
	if p == nil && !matched {
		mb.msgs = append(mb.msgs, m)
		mb.cond.Broadcast()
	}
	mb.mu.Unlock()
	if p != nil {
		copy(p.dst, m.data)
		mb.filled(p, nil)
	}
	if matched {
		mb.giveBuf(m.data)
	}
	return nil
}

// send delivers a copy of data, which the sender keeps: straight into a
// waiting post when there is one, else through a spare buffer of the box.
func (mb *mailbox) send(src, tag int, data []complex128) error {
	mb.mu.Lock()
	if mb.err != nil {
		mb.mu.Unlock()
		return mb.err
	}
	p, matched := mb.match(src, tag, len(data))
	mb.mu.Unlock()
	if p != nil {
		copy(p.dst, data)
		mb.filled(p, nil)
	}
	if matched {
		return nil
	}
	cp := mb.takeBuf(len(data))
	copy(cp, data)
	return mb.put(message{src: src, tag: tag, data: cp})
}

// post registers dst as the receive buffer of the next (src, tag) message.
// A queued one is copied in at once and its buffer returned to the box.
func (mb *mailbox) post(src, tag int, dst []complex128) *recvPost {
	mb.mu.Lock()
	var p *recvPost
	if n := len(mb.spare); n > 0 {
		p, mb.spare = mb.spare[n-1], mb.spare[:n-1]
	} else {
		p = new(recvPost)
	}
	*p = recvPost{src: src, tag: tag, dst: dst}
	for i, m := range mb.msgs {
		if m.src == src && m.tag == tag {
			mb.msgs = append(mb.msgs[:i], mb.msgs[i+1:]...)
			mb.mu.Unlock()
			if len(m.data) != len(dst) {
				p.err = sizeError(src, tag, len(m.data), len(dst))
			} else {
				copy(dst, m.data)
			}
			mb.giveBuf(m.data)
			p.state = postDone
			return p
		}
	}
	mb.posts = append(mb.posts, p)
	mb.mu.Unlock()
	return p
}

// wait blocks until p completes, or withdraws it once the box or p's source
// fails, the deadline (zero = none) passes, or at once if cancel is set. A
// post being filled is abandoned instead, and wait returns when its filler
// lets go of dst. wait releases p for reuse.
func (mb *mailbox) wait(p *recvPost, deadline time.Time, cancel bool) error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if !deadline.IsZero() && !cancel && p.state != postDone {
		defer mb.wakeAt(deadline).Stop()
	}
	for p.state != postDone {
		cause := mb.err
		if cause == nil {
			cause = mb.dead[p.src]
		}
		if cause == nil && !deadline.IsZero() && !time.Now().Before(deadline) {
			cause = ErrTimeout
		}
		if cause == nil && cancel {
			cause = ErrClosed
		}
		switch {
		case cause == nil:
		case p.state == postWaiting:
			i := slices.Index(mb.posts, p)
			mb.posts = slices.Delete(mb.posts, i, i+1)
			p.err, p.state = cause, postDone
			continue
		case !p.abandoned && p.stopper != nil:
			// Under the lock, so that the filler, which reads abandoned
			// under it once its read returns, clears the deadline it sets.
			// A failure to set it leaves the read to end by itself.
			p.abandoned, p.cause = true, cause
			_ = p.stopper.SetReadDeadline(aLongTimeAgo)
		}
		mb.cond.Wait()
	}
	err := p.err
	*p = recvPost{}
	mb.spare = append(mb.spare, p)
	return err
}

// get blocks until a message matching (src, tag) arrives, the box or the
// source fails, or the deadline (zero = none) passes.
func (mb *mailbox) get(src, tag int, deadline time.Time) ([]complex128, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if !deadline.IsZero() {
		defer mb.wakeAt(deadline).Stop()
	}
	for {
		for i := range mb.msgs {
			m := mb.msgs[i]
			if m.tag == tag && m.src == src {
				mb.msgs = append(mb.msgs[:i], mb.msgs[i+1:]...)
				return m.data, nil
			}
		}
		if mb.err != nil {
			return nil, mb.err
		}
		if e := mb.dead[src]; e != nil {
			return nil, e
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return nil, ErrTimeout
		}
		mb.cond.Wait()
	}
}

// wakeAt wakes the box's waiters at deadline, so that they check it. The
// callback takes the lock before broadcasting so the wakeup cannot slip
// between a waiter's deadline check and its Wait.
func (mb *mailbox) wakeAt(deadline time.Time) *time.Timer {
	return time.AfterFunc(time.Until(deadline), func() {
		mb.mu.Lock()
		mb.cond.Broadcast()
		mb.mu.Unlock()
	})
}

// aLongTimeAgo is a read deadline that has passed: it wakes a blocked read.
var aLongTimeAgo = time.Unix(1, 0)

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
// unmatched receives naming src return err instead of blocking.
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
	return c.world.boxes[dst].send(c.rank, tag, data)
}

func (c *inprocComm) postRecv(src, tag int, dst []complex128) (*recvPost, error) {
	if src < 0 || src >= c.world.size {
		return nil, fmt.Errorf("mpi: recv from invalid rank %d", src)
	}
	return c.world.boxes[c.rank].post(src, tag, dst), nil
}

func (c *inprocComm) waitRecv(p *recvPost) error {
	var deadline time.Time
	if d := c.world.opTimeout.Load(); d > 0 {
		deadline = time.Now().Add(time.Duration(d))
	}
	src, tag := p.src, p.tag // wait releases p
	return recvError(src, tag, c.world.boxes[c.rank].wait(p, deadline, false))
}

func (c *inprocComm) cancelRecv(p *recvPost) { c.world.boxes[c.rank].wait(p, time.Time{}, true) }

// recvError wraps a receive's timeout in the *TransportError naming its
// peer and tag; every other error passes through.
func recvError(src, tag int, err error) error {
	if err == ErrTimeout {
		return &TransportError{Op: "recv", Peer: src, Tag: tag, Err: err}
	}
	return err
}

func (c *inprocComm) Recv(src, tag int) ([]complex128, error) {
	var deadline time.Time
	if d := c.world.opTimeout.Load(); d > 0 {
		deadline = time.Now().Add(time.Duration(d))
	}
	return c.RecvDeadline(src, tag, deadline)
}

// RecvDeadline implements DeadlineRecver: a Recv that fails with a
// *TransportError wrapping ErrTimeout once deadline passes.
func (c *inprocComm) RecvDeadline(src, tag int, deadline time.Time) ([]complex128, error) {
	if src < 0 || src >= c.world.size {
		return nil, fmt.Errorf("mpi: recv from invalid rank %d", src)
	}
	data, err := c.world.boxes[c.rank].get(src, tag, deadline)
	return data, recvError(src, tag, err)
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
