//go:build !race

// Measured without the race detector: under it sync.Pool drops a quarter of
// all Puts at random, so the staging pool (deliberately) misses.

package wire

import (
	"io"
	"math"
	"runtime"
	"testing"

	"soifft/internal/codec"
)

// TestWriteResultCodecAllocs: in steady state a compressed result frame is
// encoded into the codec package's pooled staging buffer, so a 28 672-point
// response (459 KB raw) allocates a few header bytes, not a payload — the
// per-message AppendVector(nil, …) this replaces grew ≈ 1 MB of doubling
// garbage per frame.
func TestWriteResultCodecAllocs(t *testing.T) {
	const (
		n      = 28672
		warmup = 4
		rounds = 16
		budget = 4 << 10
	)
	x := make([]complex128, n)
	for i := range x {
		s, c := math.Sincos(2 * math.Pi * 5 * float64(i) / n)
		x[i] = complex(c, s)
	}
	cdc := codec.MustFor(codec.DeltaPlane, 0)
	op := func() {
		if err := WriteResultCodec(io.Discard, 0, 1, 1, x, cdc); err != nil {
			t.Fatal(err)
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
}
