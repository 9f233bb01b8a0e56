package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"soifft/internal/codec"
	"soifft/internal/fft"
	"soifft/internal/wire"
)

// batchKey groups requests that can execute as one batch on one plan:
// same length, same direction, same algorithm.
type batchKey struct {
	n   int
	dir fft.Direction
	alg algKind
}

// algKind is the admission-resolved algorithm (wire.AlgAuto is resolved to
// one of these before a request enters a queue).
type algKind uint8

const (
	algExact algKind = iota
	algSOI
)

// request is one admitted transform job: count transforms of n points,
// stored contiguously in src, results delivered contiguously in dst.
// done is called exactly once, from the executor (or from admission
// teardown), with err == nil iff dst holds count*n valid results.
type request struct {
	key      batchKey
	id       uint64 // wire reqID, echoed in the response
	count    int
	src, dst []complex128
	deadline time.Time // zero = none
	enqueued time.Time
	ver      byte        // request protocol version, echoed in the response
	codec    codec.Codec // response payload codec (nil = identity)
	done     func(r *request, err error)
}

// queue holds the pending requests of one batchKey. Invariant: a queue is
// in the scheduler's ready list exactly once while it has pending requests,
// and only then. A worker pops it, takes a batch and puts it back at the
// tail if requests remain, all in one critical section under mu, so the
// list is the whole hand-off between Submit and the workers.
type queue struct {
	key  batchKey
	reqs []*request
}

// scheduler owns admission control and the per-size batching queues, and
// runs the executor worker pool.
type scheduler struct {
	execute func(batch []*request, total int) // set by Server

	maxInFlight int // admitted transforms (sum of request counts)
	maxBatch    int // transforms per executed batch

	mu       sync.Mutex
	queues   map[batchKey]*queue
	ready    []*queue   // nonempty queues, FIFO; guarded by mu
	work     *sync.Cond // on mu: signalled when ready grows or stop is called
	inFlight int
	draining bool
	stopped  bool
	// idle is closed, under mu, when draining and inFlight reaches 0.
	idle chan struct{}
	wg   sync.WaitGroup
}

func newScheduler(workers, maxInFlight, maxBatch int, execute func([]*request, int)) *scheduler {
	s := &scheduler{
		execute:     execute,
		maxInFlight: maxInFlight,
		maxBatch:    maxBatch,
		queues:      make(map[batchKey]*queue),
		idle:        make(chan struct{}),
	}
	s.work = sync.NewCond(&s.mu)
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

// Submit admits req or rejects it with wire.ErrOverloaded /
// wire.ErrShuttingDown. On success, ownership of req passes to the
// scheduler and req.done will eventually be called exactly once.
func (s *scheduler) Submit(req *request) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return wire.ErrShuttingDown
	}
	if s.inFlight+req.count > s.maxInFlight {
		s.mu.Unlock()
		return fmt.Errorf("%w: %d transforms in flight, limit %d", wire.ErrOverloaded, s.inFlight, s.maxInFlight)
	}
	s.inFlight += req.count
	req.enqueued = time.Now()
	q, ok := s.queues[req.key]
	if !ok {
		q = &queue{key: req.key}
		s.queues[req.key] = q
	}
	q.reqs = append(q.reqs, req)
	if len(q.reqs) == 1 { // empty -> nonempty: the queue becomes ready
		s.ready = append(s.ready, q)
		s.work.Signal()
	}
	s.mu.Unlock()
	return nil
}

// InFlight reports the currently admitted transform count.
func (s *scheduler) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inFlight
}

// finish completes a request: runs its callback, then releases its
// admission slots.
func (s *scheduler) finish(req *request, err error) {
	req.done(req, err)
	s.mu.Lock()
	s.inFlight -= req.count
	if s.draining && s.inFlight == 0 {
		select {
		case <-s.idle:
		default:
			close(s.idle)
		}
	}
	s.mu.Unlock()
}

// worker drains ready queues: it pops the oldest, takes up to maxBatch
// transforms from it (whole requests — a batch frame is never split) and
// executes them as one batch on one plan. It exits once stop has been
// called and no queue is ready.
func (s *scheduler) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		for len(s.ready) == 0 && !s.stopped {
			s.work.Wait()
		}
		if len(s.ready) == 0 {
			s.mu.Unlock()
			return
		}
		q := s.ready[0]
		s.ready[0] = nil
		s.ready = s.ready[1:]
		var batch []*request
		total := 0
		for len(q.reqs) > 0 {
			r := q.reqs[0]
			if total > 0 && total+r.count > s.maxBatch {
				break
			}
			q.reqs = q.reqs[1:]
			batch = append(batch, r)
			total += r.count
			if total >= s.maxBatch {
				break
			}
		}
		if len(q.reqs) > 0 { // still nonempty: back of the line
			s.ready = append(s.ready, q)
			s.work.Signal()
		} else {
			delete(s.queues, q.key)
		}
		s.mu.Unlock()
		s.execute(batch, total)
		s.mu.Lock()
	}
}

// refuse makes every subsequent Submit fail with wire.ErrShuttingDown;
// already-admitted requests keep executing.
func (s *scheduler) refuse() {
	s.mu.Lock()
	s.draining = true
	if s.inFlight == 0 {
		select {
		case <-s.idle:
		default:
			close(s.idle)
		}
	}
	s.mu.Unlock()
}

// Drain blocks until every admitted request has completed (refuse must have
// been called first) or ctx expires.
func (s *scheduler) Drain(ctx context.Context) error {
	select {
	case <-s.idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// stop fails everything still queued with wire.ErrShuttingDown and shuts
// the worker pool down. Safe to call more than once; implies refuse.
func (s *scheduler) stop() {
	s.mu.Lock()
	s.draining = true
	var pending []*request
	if !s.stopped {
		s.stopped = true
		for _, q := range s.queues {
			pending = append(pending, q.reqs...)
			q.reqs = nil
		}
		s.queues = make(map[batchKey]*queue)
		s.ready = nil
		s.work.Broadcast()
	}
	s.mu.Unlock()
	for _, r := range pending {
		s.finish(r, wire.ErrShuttingDown)
	}
	s.wg.Wait()
}
