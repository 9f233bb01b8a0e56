//go:build !race

// Measured without the race detector: under it sync.Pool drops a quarter of
// all Puts at random, so the staging pool (deliberately) misses.

package wire

import (
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"soifft/internal/codec"
)

// TestWriteResultCodecAllocs: in steady state a compressed result frame is
// encoded into the codec package's pooled staging buffer, so a 28 672-point
// response (459 KB raw) allocates a few header bytes, not a payload — the
// per-message AppendVector(nil, …) this replaces grew ≈ 1 MB of doubling
// garbage per frame. The raw leg holds the fallback to the same budget: a
// payload whose first block does not pay borrows the staging for the probe
// block only and goes out from its own memory.
func TestWriteResultCodecAllocs(t *testing.T) {
	const (
		n      = 28672
		warmup = 4
		rounds = 16
		budget = 4 << 10
	)
	smooth := make([]complex128, n)
	for i := range smooth {
		s, c := math.Sincos(2 * math.Pi * 5 * float64(i) / n)
		smooth[i] = complex(c, s)
	}
	rng := rand.New(rand.NewSource(1))
	noise := make([]complex128, n)
	for i := range noise {
		noise[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	cdc := codec.MustFor(codec.DeltaPlane, 0)
	w := NewWriter(io.Discard, 256<<10)
	for _, leg := range []struct {
		name    string
		x       []complex128
		encoded bool
	}{{"encoded", smooth, true}, {"raw", noise, false}} {
		t.Run(leg.name, func(t *testing.T) {
			op := func() {
				encoded, err := WriteResultCodec(w, 0, 1, 1, leg.x, cdc)
				if err != nil {
					t.Fatal(err)
				}
				if encoded != leg.encoded {
					t.Fatalf("payload encoded %v, want %v", encoded, leg.encoded)
				}
			}
			for i := 0; i < warmup; i++ {
				op()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < rounds; i++ {
				op()
			}
			runtime.ReadMemStats(&after)
			perOp := (after.TotalAlloc - before.TotalAlloc) / rounds
			t.Logf("%d bytes allocated per frame", perOp)
			if perOp > budget {
				t.Errorf("%d bytes allocated per frame, budget %d", perOp, budget)
			}
		})
	}
}
