// Package par provides the intra-node parallel loop primitives used across
// the repository. It stands in for the OpenMP layer of the paper's hybrid
// MPI+OpenMP scheme: chunked parallel-for with static partitioning, matching
// the paper's thread-level parallelization of loop_a / loop_b style loops.
package par

import (
	"runtime"
	"sync"
)

// DefaultWorkers returns the worker count used when a caller passes
// workers <= 0: the number of usable CPUs.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// For splits the iteration space [0, n) into one contiguous chunk per worker
// and runs body(lo, hi) on each chunk concurrently. With workers <= 1 (or
// n small) it degenerates to a serial call, so callers can use it
// unconditionally. The static contiguous split mirrors OpenMP's
// schedule(static), which is what the paper's kernels rely on for locality.
func For(workers, n int, body func(lo, hi int)) {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			body(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ForChunked is like For but hands out chunks of the given size dynamically,
// which balances load when per-index cost is irregular (e.g. tiles of mixed
// cache residency). body receives [lo, hi) with hi-lo <= chunk.
func ForChunked(workers, n, chunk int, body func(lo, hi int)) {
	if chunk <= 0 {
		chunk = 1
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	nchunks := (n + chunk - 1) / chunk
	if workers > nchunks {
		workers = nchunks
	}
	if workers <= 1 {
		for lo := 0; lo < n; lo += chunk {
			body(lo, min(lo+chunk, n))
		}
		return
	}
	// The goroutines capture copies made here, so that the serial path above
	// moves nothing to the heap (chunk is reassigned, which would make a
	// closure capture it by reference).
	var wg sync.WaitGroup
	next := make(chan int, nchunks)
	size, end := chunk, n
	for lo := 0; lo < end; lo += size {
		next <- lo
	}
	close(next)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for lo := range next {
				body(lo, min(lo+size, end))
			}
		}()
	}
	wg.Wait()
}

// FreeList has sync.Pool's shape but keeps every value put back, through
// collections and across Ps: one working set per peak concurrent caller.
type FreeList[T any] struct {
	New  func() T
	mu   sync.Mutex
	free []T
}

// Get returns a value put back earlier, or a new one from New.
func (f *FreeList[T]) Get() T {
	f.mu.Lock()
	if n := len(f.free) - 1; n >= 0 {
		v := f.free[n]
		f.free = f.free[:n]
		f.mu.Unlock()
		return v
	}
	f.mu.Unlock()
	return f.New() // outside the lock: New is the caller's code
}

// Put returns v for the next Get.
func (f *FreeList[T]) Put(v T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.free = append(f.free, v)
}
