package codec

import (
	"runtime"
	"testing"
)

// TestStagingSurvivesOtherGoroutineAndGC pins what the free list is for: a
// buffer returned on one goroutine is what the next borrower gets, whichever
// P it runs on and however many collections ran in between — a sync.Pool
// alone loses it to either.
func TestStagingSurvivesOtherGoroutineAndGC(t *testing.T) {
	const elems = 28672
	// Drain what other tests left, so the buffer returned below is the one
	// the slots hand out first.
	for i := range staging.slots {
		staging.slots[i].Store(nil)
	}
	b := BorrowStaging(elems)
	if uint64(cap(*b)) < MaxEncodedLen(elems) {
		t.Fatalf("cap %d < MaxEncodedLen %d", cap(*b), MaxEncodedLen(elems))
	}
	*b = append(*b, 1, 2, 3)
	ReturnStaging(b)
	runtime.GC()
	runtime.GC()
	got := make(chan *[]byte)
	go func() {
		runtime.LockOSThread() // a thread, hence very likely a P, of its own
		got <- BorrowStaging(elems)
	}()
	g := <-got
	if g != b {
		t.Errorf("borrowed a different buffer (cap %d) after a return: the free list missed", cap(*g))
	}
	if len(*g) != 0 {
		t.Errorf("borrowed buffer has length %d, want 0", len(*g))
	}
	ReturnStaging(g)
}
