package serve

import (
	"sync"
	"testing"

	"soifft"
)

// hammerCfg is a small SOI configuration whose window designs are fast
// enough to run many of in a unit test (same shape internal/soi tests use).
var hammerCfg = soifft.Config{Segments: 2, ConvWidth: 48}

// TestPlanCacheHammer drives the cache from many goroutines demanding a mix
// of sizes (run under -race via scripts/check.sh): single-flight planning
// must design each (N, Config) exactly once, and every demander of one key
// must get the same plan.
func TestPlanCacheHammer(t *testing.T) {
	sizes := []int{448, 896, 1792}
	c := NewPlanCache(8)

	const goroutines = 16
	const rounds = 8
	plans := make([][]*soifft.Plan, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n := sizes[(g+r)%len(sizes)]
				p, err := c.Get(n, hammerCfg)
				if err != nil {
					t.Errorf("Get(%d): %v", n, err)
					return
				}
				if p.N() != n {
					t.Errorf("Get(%d) returned plan for N=%d", n, p.N())
				}
				plans[g] = append(plans[g], p)
			}
		}()
	}
	wg.Wait()

	st := c.Stats()
	if st.Designs != int64(len(sizes)) {
		t.Errorf("designed %d times, want exactly %d (single-flight violated)", st.Designs, len(sizes))
	}
	if st.Hits+st.Misses != goroutines*rounds {
		t.Errorf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, goroutines*rounds)
	}
	// Same key -> same *Plan: the cache shares, never rebuilds.
	byN := make(map[int]*soifft.Plan)
	for g := range plans {
		for i, p := range plans[g] {
			n := sizes[(g+i)%len(sizes)]
			if prev, ok := byN[n]; ok && prev != p {
				t.Fatalf("two distinct plans for N=%d", n)
			}
			byN[n] = p
		}
	}
}

func TestPlanCacheEviction(t *testing.T) {
	c := NewPlanCache(2)
	for _, n := range []int{448, 896, 1792} {
		if _, err := c.Get(n, hammerCfg); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries > 2 {
		t.Errorf("cache holds %d entries, capacity 2", st.Entries)
	}
	if st.Evictions != 1 {
		t.Errorf("evictions %d, want 1", st.Evictions)
	}
	// The evicted (least-recent) size is designed again on re-demand.
	if _, err := c.Get(448, hammerCfg); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Designs != 4 {
		t.Errorf("designs %d after re-demand of evicted size, want 4", st.Designs)
	}
}

// TestPlanCacheErrorNotCached: a failed build must not poison the key.
func TestPlanCacheErrorNotCached(t *testing.T) {
	c := NewPlanCache(4)
	if _, err := c.Get(100, hammerCfg); err == nil { // 100 is not SOI-valid
		t.Fatal("invalid length accepted")
	}
	if _, err := c.Get(100, hammerCfg); err == nil {
		t.Fatal("invalid length accepted on retry")
	}
	st := c.Stats()
	if st.Entries != 0 {
		t.Errorf("error entries retained: %d", st.Entries)
	}
	if st.Misses != 2 {
		t.Errorf("misses %d, want 2 (errors must not be cached)", st.Misses)
	}
}

func TestPlanCacheKeyCanonical(t *testing.T) {
	c := NewPlanCache(4)
	// Default-equivalent configs must share one entry. 3136 = 8^2*7^2 is
	// valid for the default Segments=8, mu=8/7 (granularity 448).
	a, err := c.Get(3136, soifft.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Get(3136, soifft.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("zero config and DefaultConfig produced distinct cache entries")
	}
	if st := c.Stats(); st.Designs != 1 {
		t.Errorf("designs %d, want 1", st.Designs)
	}
}

func TestKernelCaches(t *testing.T) {
	exact := newExactCache(4)
	p, err := exact.Get(146)
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 146 {
		t.Errorf("exact cache plan N=%d", p.N())
	}
	if p2, err := exact.Get(146); err != nil || p2 != p {
		t.Error("exact cache rebuilt an existing plan")
	}
	// An invalid length fails to build; the error must not be cached.
	if _, err := exact.Get(-1); err == nil {
		t.Error("invalid length accepted by exact cache")
	}
	if exact.Len() != 1 {
		t.Errorf("exact cache holds %d entries, want 1", exact.Len())
	}
}

func TestBufPool(t *testing.T) {
	var b bufPool
	x := b.get(64)
	if len(x) != 64 {
		t.Fatalf("got len %d", len(x))
	}
	b.put(x)
	y := b.get(128)
	if len(y) != 128 {
		t.Fatalf("got len %d", len(y))
	}
	b.put(nil) // must not panic
}
