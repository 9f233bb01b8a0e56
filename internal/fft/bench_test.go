package fft

import (
	"fmt"
	"runtime"
	"testing"

	"soifft/internal/par"
	"soifft/internal/ref"
)

func benchTransform(b *testing.B, n int) {
	p := MustPlan(n)
	x := ref.RandomVector(n, 1)
	dst := make([]complex128, n)
	b.SetBytes(int64(n) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(dst, x)
	}
	b.ReportMetric(5*float64(n)*log2(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

func log2(n int) float64 {
	l := 0.0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

func BenchmarkPlanPow2(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 14, 1 << 18} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchTransform(b, n) })
	}
}

func BenchmarkPlanMixedRadix(b *testing.B) {
	// The SOI-relevant shapes: factors of 7 (mu = 8/7 lengths) and 5.
	for _, n := range []int{7 * 1024, 7 * 4096, 5 * 4096, 3 * 3 * 5 * 7 * 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchTransform(b, n) })
	}
}

func BenchmarkPlanBluestein(b *testing.B) {
	for _, n := range []int{1009, 65537} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchTransform(b, n) })
	}
}

func BenchmarkSixStepVariants(b *testing.B) {
	const n = 1 << 16
	x := ref.RandomVector(n, 2)
	dst := make([]complex128, n)
	for _, v := range AllVariants {
		b.Run(v.String(), func(b *testing.B) {
			s, err := NewSixStep(n, v, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(n) * 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Forward(dst, x)
			}
		})
	}
}

// BenchmarkStages prices each Stockham stage kernel in isolation, under
// every kernel set the host has, in ns per butterfly, at the plans that
// run in production: the 2^16-point SOI segment plan (radix 8 at s = 1, 8,
// 64, 512 and 4096, then radix 2 at s = 32768, which ForwardDemodulate
// fuses with the demodulation: "fused-demod", into a 32-byte-aligned dst,
// the pass that streams), and soifftd's exact 1024-point (8·8·8·2) and
// 28 672-point (8^4·7, radix 7 untwiddled at m = 1) plans. Each stage reads
// and writes the same two vectors every call, so they are as hot as the
// cache holds them. A kernel under 1.3x the next one down here does not
// ship (DESIGN.md section 11; TestWideStagePays gates the 512-bit stage).
func BenchmarkStages(b *testing.B) {
	for _, n := range []int{1 << 16, 1024, 7 << 12} {
		p := MustPlan(n)
		x := ref.RandomVector(n, 2)
		y := make([]complex128, n)
		for i := range p.stages {
			st := &p.stages[i]
			for _, k := range kernels() {
				b.Run(fmt.Sprintf("n=%d/r=%d/s=%d/%s", n, st.r, st.s, k), func(b *testing.B) {
					defer useKernel(k)()
					for i := 0; i < b.N; i++ {
						runStage(st, y, x)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*st.m*st.s), "ns/butterfly")
				})
			}
		}
		if last := p.stages[len(p.stages)-1]; n == 1<<16 && last.r == 2 {
			d := ref.RandomVector(n, 3)
			m := n / 8 * 7
			for _, k := range kernels() {
				b.Run(fmt.Sprintf("n=%d/fused-demod/%s", n, k), func(b *testing.B) {
					defer useKernel(k)()
					for i := 0; i < b.N; i++ {
						radix2Demodulate(y[:m], x, last.tw[0], d[:m])
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n/2), "ns/butterfly")
				})
			}
		}
	}
	// The 8-point codelet over the columns of a lane-major tile, each bin's
	// run stored into its segment vector (the SOI stage-2 shape: 256 columns
	// per tile at the benchmark geometry, 260 apart, segment vectors 2^16
	// long).
	const cols, xs, ys = 256, 260, 1 << 16
	tileX := ref.RandomVector(7*xs+cols, 3)
	segVecs := make([]complex128, 8*ys)
	segs := make([][]complex128, 8)
	for f := range segs {
		segs[f] = segVecs[f*ys : f*ys+cols]
	}
	p := MustPlan(8)
	for _, k := range kernels() {
		b.Run("dft8-cols/"+k, func(b *testing.B) {
			defer useKernel(k)()
			for i := 0; i < b.N; i++ {
				p.ForwardCols(segs, tileX, xs, cols)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cols), "ns/butterfly")
		})
	}
	// The six-step's two per-element products at 2^16: one lane tile's
	// twiddle pass and one row group's fused demodulation.
	s, err := NewSixStep(1<<16, SixStepOpt, 1)
	if err != nil {
		b.Fatal(err)
	}
	s.SetDemod(ref.RandomVector(1<<16, 4))
	w := make([]complex128, 1<<16)
	tile := ref.RandomVector(s.n1*tileCols, 5)
	rbuf := ref.RandomVector((s.n2+rowPad)*tileCols, 6)
	for _, k := range kernels() {
		b.Run("twiddle-tile/"+k, func(b *testing.B) {
			defer useKernel(k)()
			for i := 0; i < b.N; i++ {
				s.twiddleTile(w, tile, 8)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.n1*tileCols), "ns/element")
		})
		b.Run("demod-scatter/"+k, func(b *testing.B) {
			defer useKernel(k)()
			for i := 0; i < b.N; i++ {
				s.rowGroupScatter(w, rbuf, 8, 16)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.n2*tileCols), "ns/element")
		})
	}
}

func BenchmarkBatchSmallFFTs(b *testing.B) {
	// The I_M' (x) F_P stage shape: many tiny transforms.
	const p, count = 64, 4096
	for _, workers := range []int{1, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			batch, err := NewBatch(p, workers)
			if err != nil {
				b.Fatal(err)
			}
			x := ref.RandomVector(p*count, 3)
			dst := make([]complex128, p*count)
			b.SetBytes(int64(p*count) * 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch.Transform(dst, x, count, p, Forward)
			}
		})
	}
}

func BenchmarkTwiddleSchemes(b *testing.B) {
	// Full-table vs dynamic-block twiddle access (the trade Section 5.2.2
	// calls the "dynamic block scheme").
	s, err := NewSixStep(1<<16, SixStepOpt, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("dynamic-block", func(b *testing.B) {
		var acc complex128
		for i := 0; i < b.N; i++ {
			acc += s.twiddleOpt(i % s.n)
		}
		_ = acc
	})
	naive, err := NewSixStep(1<<16, SixStepNaive, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("full-table", func(b *testing.B) {
		var acc complex128
		for i := 0; i < b.N; i++ {
			acc += naive.twFull[i%naive.n]
		}
		_ = acc
	})
}

// BenchmarkSegmentEngines is the sweep behind soi's segment-engine threshold:
// stages 4 and 5 of SOI segments (the M'-point FFT, the demodulation and the
// projection onto the first M = 7M'/8 bins) on each engine with GOMAXPROCS
// workers w, as soi.Plan.Forward runs them. An operation is w segments:
// plain runs one Plan.ForwardDemodulate into the M outputs per worker at
// once, each with its own scratch; six-step runs SixStepOpt with the
// demodulation fused into its last pass and its passes split across the w
// workers, then the copy of the M outputs, for one segment after another.
// It reports ms/segment. As in Forward each segment is the next of several
// segment vectors that together span at least 8 MiB, so a segment arrives
// from beyond L2, not hot from the last call. (plain overwrites the segment
// it reads; transforming those values again is the same work.) -cpu 1 is
// the one-worker sweep. The largest sizes need several hundred MB; run them
// alone: -bench 'SegmentEngines/M.=4194304' -benchtime 3x.
func BenchmarkSegmentEngines(b *testing.B) {
	w := runtime.GOMAXPROCS(0)
	for _, mp := range []int{1 << 16, 1 << 18, 1 << 20, 7 << 18, 1 << 21, 1 << 22} {
		m := mp / 8 * 7
		segs := max(2, w, (8<<20)/(16*mp))
		t := ref.RandomVector(segs*mp, 3)
		demod := ref.RandomVector(mp, 4)
		clear(demod[m:])
		scratch := make([]complex128, w*mp)
		dst := make([]complex128, segs*m)
		perSegment := func(b *testing.B) {
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N*w), "ms/segment")
		}
		b.Run(fmt.Sprintf("M'=%d/plain", mp), func(b *testing.B) {
			p := MustPlan(mp)
			b.SetBytes(int64(w*mp) * 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				par.For(w, w, func(lo, hi int) {
					for j := lo; j < hi; j++ {
						f := (i*w + j) % segs
						p.ForwardDemodulate(dst[f*m:(f+1)*m], t[f*mp:(f+1)*mp], scratch[j*mp:(j+1)*mp], demod)
					}
				})
			}
			perSegment(b)
		})
		b.Run(fmt.Sprintf("M'=%d/six-step", mp), func(b *testing.B) {
			s, err := NewSixStep(mp, SixStepOpt, w)
			if err != nil {
				b.Fatal(err)
			}
			s.SetDemod(demod)
			b.SetBytes(int64(w*mp) * 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < w; j++ {
					f := (i*w + j) % segs
					s.Forward(scratch[:mp], t[f*mp:(f+1)*mp])
					copy(dst[f*m:(f+1)*m], scratch[:m])
				}
			}
			perSegment(b)
		})
	}
}
