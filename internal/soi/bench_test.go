package soi

import (
	"runtime"
	"testing"

	"soifft/internal/ref"
	"soifft/internal/window"
)

// benchParams are the repository benchmark's SOI parameters (soiperf's
// lib_soi_458k) at N = 7*2^logN.
func benchParams(logN int) window.Params {
	return window.Params{N: 7 << logN, Segments: 8, NMu: 8, DMu: 7, B: 72}
}

// BenchmarkForward458k is soiperf's lib_soi_458k operation, one Forward at
// N = 7*2^16 on a plan with GOMAXPROCS workers, for A/B runs of the library
// path without soiperf: -cpu 1 is soiperf's one-processor operation, -cpu 2
// shows the stages' parallel scaling. It reports ms/op beside ns/op and
// B/op.
func BenchmarkForward458k(b *testing.B) {
	p := benchParams(16)
	opts := DefaultOptions()
	opts.Workers = runtime.GOMAXPROCS(0)
	pl, err := NewPlan(p, opts)
	if err != nil {
		b.Fatal(err)
	}
	x := ref.RandomVector(p.N, 1)
	out := make([]complex128, p.N)
	if err := pl.Forward(out, x); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(16 * p.N))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pl.Forward(out, x); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
}

// BenchmarkConvolveToSegments458k is stages 1 to 3 of BenchmarkForward458k
// alone: the convolution, the Segments-point FFTs and the permutation into
// the segment vectors, over all chunks of a circularly extended input on a
// single-worker plan. Run it with -cpu 1; it reports ms/op beside ns/op and
// allocs/op.
func BenchmarkConvolveToSegments458k(b *testing.B) {
	p := benchParams(16)
	opts := DefaultOptions()
	opts.Workers = 1
	pl, err := NewPlan(p, opts)
	if err != nil {
		b.Fatal(err)
	}
	x := ref.RandomVector(p.N+p.GhostElems(), 1)
	t := make([][]complex128, p.Segments)
	for f := range t {
		t[f] = make([]complex128, p.MPrime())
	}
	pl.ConvolveToSegments(t, x, 0, p.Chunks())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.ConvolveToSegments(t, x, 0, p.Chunks())
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
}
