//go:build !race

// Measured without the race detector: under it sync.Pool drops a quarter of
// all Puts at random, so the staging pool (deliberately) misses.

package client

import (
	"context"
	"math"
	"runtime"
	"testing"

	"soifft/internal/wire"
)

// TestTransformCodecAllocs is wire.TestWriteResultCodecAllocs for the
// request path: a compressed 28 672-point request is staged in the pooled
// buffer, so a call allocates its pending entry and little else. The peer
// answers with one shared identity payload, so its side adds nothing.
func TestTransformCodecAllocs(t *testing.T) {
	const (
		n      = 28672
		warmup = 4
		rounds = 16
		budget = 4 << 10
	)
	reply := make([]complex128, n)
	cl := forgedPeer(t, func(req wire.Header) (wire.Header, []complex128) {
		return wire.Header{
			Type: wire.TResult, ReqID: req.ReqID, Count: 1, N: n,
			PayloadLen: n * wire.BytesPerElem,
		}, reply
	})
	if err := cl.SetCodec("deltaplane", 0); err != nil {
		t.Fatal(err)
	}
	src := make([]complex128, n)
	for i := range src {
		s, c := math.Sincos(2 * math.Pi * 5 * float64(i) / n)
		src[i] = complex(c, s)
	}
	dst := make([]complex128, n)
	op := func() {
		if err := cl.Forward(context.Background(), dst, src); err != nil {
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
	t.Logf("%d bytes allocated per call", perOp)
	if perOp > budget {
		t.Errorf("%d bytes allocated per call, budget %d", perOp, budget)
	}
}
