package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soifft/internal/wire"
)

// handOffStub is a scheduler driven by a stub executor that completes each
// batch at once and records it.
type handOffStub struct {
	s       *scheduler
	mu      sync.Mutex
	batches [][]*request // in execution order
	done    map[*request]int
	errs    map[*request]error
	all     sync.WaitGroup // one per submitted request, until its done call
}

func newHandOffStub(workers, maxBatch int, hold func()) *handOffStub {
	h := &handOffStub{done: make(map[*request]int), errs: make(map[*request]error)}
	h.s = newScheduler(workers, 1<<20, maxBatch, func(batch []*request, total int) {
		h.mu.Lock()
		h.batches = append(h.batches, append([]*request(nil), batch...))
		h.mu.Unlock()
		if hold != nil {
			hold()
		}
		for _, r := range batch {
			h.s.finish(r, nil)
		}
	})
	return h
}

// submit admits count transforms for submitter sub, its seq-th request.
func (h *handOffStub) submit(t *testing.T, key batchKey, sub, seq, count int) {
	r := &request{key: key, id: uint64(sub)<<32 | uint64(seq), count: count,
		done: func(r *request, err error) {
			h.mu.Lock()
			h.done[r]++
			h.errs[r] = err
			h.mu.Unlock()
			h.all.Done()
		}}
	h.all.Add(1)
	if err := h.s.Submit(r); err != nil {
		h.all.Done()
		t.Errorf("Submit: %v", err)
	}
}

// waitAll waits for every submitted request's completion, or fails.
func (h *handOffStub) waitAll(t *testing.T) {
	t.Helper()
	ch := make(chan struct{})
	go func() { h.all.Wait(); close(ch) }()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatal("submitted requests not all completed within 10s")
	}
}

// stop runs the scheduler's stop in the background; the returned channel
// is closed once it returns, which wg.Wait holds until every worker exits.
func (h *handOffStub) stop() <-chan struct{} {
	ch := make(chan struct{})
	go func() { h.s.stop(); close(ch) }()
	return ch
}

func waitStopped(t *testing.T, stopped <-chan struct{}) {
	t.Helper()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("stop did not return within 10s: a worker did not exit")
	}
}

func seqOf(r *request) (sub, seq int) { return int(r.id >> 32), int(uint32(r.id)) }

// TestSchedulerHandOff drives the scheduler alone, with a stub executor,
// from many submitting goroutines sharing a few batch keys. Every request
// runs exactly once; a batch is whole requests of one key, at most maxBatch
// transforms, taken off its queue in submission order (each submitter's
// requests in a batch are a consecutive run of its own sequence, and with
// one worker the batches run in that order too). The "stop" subtest is
// stop's contract.
func TestSchedulerHandOff(t *testing.T) {
	const (
		submitters = 16
		perSub     = 1000
		keys       = 3
		maxBatch   = 8
	)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			h := newHandOffStub(workers, maxBatch, nil)
			var wg sync.WaitGroup
			for sub := 0; sub < submitters; sub++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					key := batchKey{n: 1 + sub%keys}
					for seq := 0; seq < perSub; seq++ {
						h.submit(t, key, sub, seq, 1+(sub+seq)%3)
						// Yield so another goroutine takes mu between this
						// Submit's Unlock and its next Lock: only there can
						// -race see a hand-off made outside the lock. On a
						// loaded 2-CPU host it caught one in 10 of 20 runs
						// without the yield and in 20 of 20 with it.
						runtime.Gosched()
					}
				}()
			}
			wg.Wait()
			h.waitAll(t)
			waitStopped(t, h.stop())

			h.mu.Lock()
			defer h.mu.Unlock()
			if len(h.done) != submitters*perSub {
				t.Fatalf("%d requests completed, submitted %d", len(h.done), submitters*perSub)
			}
			for r, n := range h.done {
				if n != 1 || h.errs[r] != nil {
					t.Fatalf("request %x completed %d times, last with %v; want once, nil", r.id, n, h.errs[r])
				}
			}
			next := make([]int, submitters) // with one worker: the next seq each submitter must show
			runs := make([][][2]int, submitters)
			for _, b := range h.batches {
				total := 0
				first := make(map[int]int) // submitter -> its first seq in this batch
				last := make(map[int]int)
				for _, r := range b {
					total += r.count
					if r.key != b[0].key {
						t.Fatalf("one batch mixes keys %v and %v", b[0].key, r.key)
					}
					sub, seq := seqOf(r)
					if l, ok := last[sub]; ok && seq != l+1 {
						t.Fatalf("submitter %d: seq %d follows %d in one batch", sub, seq, l)
					}
					if _, ok := first[sub]; !ok {
						first[sub] = seq
					}
					last[sub] = seq
					if workers == 1 {
						if seq != next[sub] {
							t.Fatalf("one worker ran submitter %d's seq %d, want %d next", sub, seq, next[sub])
						}
						next[sub]++
					}
				}
				if total > maxBatch {
					t.Fatalf("batch of %d transforms, maxBatch %d", total, maxBatch)
				}
				for sub, lo := range first {
					runs[sub] = append(runs[sub], [2]int{lo, last[sub]})
				}
			}
			// Each submitter's runs tile its sequence: a batch never takes a
			// request from behind one a later batch holds.
			for sub, rs := range runs {
				seen := make([]bool, perSub)
				for _, r := range rs {
					for seq := r[0]; seq <= r[1]; seq++ {
						if seen[seq] {
							t.Fatalf("submitter %d: seq %d in two batches", sub, seq)
						}
						seen[seq] = true
					}
				}
			}
		})
	}
	t.Run("stop", testSchedulerStop)
}

// testSchedulerStop: stop completes every request still queued exactly
// once with wire.ErrShuttingDown, lets the batches already running finish,
// refuses new work, and returns only once every worker has exited.
func testSchedulerStop(t *testing.T) {
	const (
		workers    = 2
		submitters = 8
		perSub     = 50
	)
	entered := make(chan struct{}, workers)
	release := make(chan struct{})
	var calls atomic.Int32
	h := newHandOffStub(workers, 4, func() {
		calls.Add(1)
		entered <- struct{}{}
		<-release
	})
	var wg sync.WaitGroup
	for sub := 0; sub < submitters; sub++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; seq < perSub; seq++ {
				h.submit(t, batchKey{n: 1 + sub%2}, sub, seq, 1)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < workers; i++ { // both workers now hold a batch
		<-entered
	}
	stopped := h.stop()
	for { // release the held batches only once stop has failed the queue
		h.s.mu.Lock()
		s := h.s.stopped
		h.s.mu.Unlock()
		if s {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	waitStopped(t, stopped)
	h.waitAll(t)

	if err := h.s.Submit(&request{count: 1, done: func(*request, error) {}}); !errors.Is(err, wire.ErrShuttingDown) {
		t.Fatalf("Submit after stop: %v, want ErrShuttingDown", err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if got := int(calls.Load()); got != workers {
		t.Fatalf("%d batches executed, want the %d held when stop began", got, workers)
	}
	ran := make(map[*request]bool)
	for _, b := range h.batches {
		for _, r := range b {
			ran[r] = true
		}
	}
	if len(h.done) != submitters*perSub {
		t.Fatalf("%d requests completed, submitted %d", len(h.done), submitters*perSub)
	}
	shut := 0
	for r, n := range h.done {
		switch {
		case n != 1:
			t.Fatalf("request %x completed %d times", r.id, n)
		case ran[r] && h.errs[r] != nil:
			t.Fatalf("executed request %x completed with %v", r.id, h.errs[r])
		case !ran[r] && !errors.Is(h.errs[r], wire.ErrShuttingDown):
			t.Fatalf("queued request %x completed with %v, want ErrShuttingDown", r.id, h.errs[r])
		case !ran[r]:
			shut++
		}
	}
	if shut != submitters*perSub-len(ran) {
		t.Fatalf("%d requests failed with ErrShuttingDown, want %d", shut, submitters*perSub-len(ran))
	}
	if n := h.s.InFlight(); n != 0 {
		t.Fatalf("InFlight = %d after stop", n)
	}
}
