package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFreeList: a value put back is the next one handed out, a warm Get and
// Put allocate nothing, and concurrent callers never hold the same value.
func TestFreeList(t *testing.T) {
	var made atomic.Int64
	l := FreeList[[]complex128]{New: func() []complex128 {
		made.Add(1)
		return make([]complex128, 64)
	}}

	t.Run("reuse", func(t *testing.T) {
		a := l.Get()
		l.Put(a)
		if b := l.Get(); &b[0] != &a[0] {
			t.Error("Get after Put returned a different backing array")
		} else {
			l.Put(b)
		}
	})

	t.Run("warm", func(t *testing.T) {
		l.Put(l.Get())
		if a := testing.AllocsPerRun(100, func() { l.Put(l.Get()) }); a != 0 {
			t.Errorf("%v allocations per warm Get/Put pair, want 0", a)
		}
	})

	// Each goroutine marks the values it holds by writing their first
	// element, unsynchronized: a value handed to two holders at once is a
	// data race under -race, and a mark found on Get is a double hand-out.
	t.Run("hammer", func(t *testing.T) {
		workers := runtime.GOMAXPROCS(0)
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 2000; i++ {
					v := l.Get()
					if v[0] != 0 {
						t.Errorf("value handed out while held by worker %v", real(v[0])-1)
						return
					}
					v[0] = complex(float64(w+1), 0)
					v[0] = 0
					l.Put(v)
				}
			}()
		}
		wg.Wait()
		if m := made.Load(); m > int64(workers) {
			t.Errorf("%d values made for %d concurrent callers", m, workers)
		}
	})
}
