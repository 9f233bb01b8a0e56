package fft

import (
	"fmt"
	"testing"

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

// BenchmarkStages prices each Stockham stage kernel in isolation, AVX2
// against its Go twin, in ns per butterfly, at the shapes the 2^16-point
// six-step (256 x 256) runs: the column pass's lane batch (radix 8 at s = 8
// reading its first pass at xs = n2 = 256, radix 8 at s = 64, radix 4 at
// s = 512), the row pass's plan (radix 8 unit-stride, radix 8 at s = 8,
// radix 4 at s = 64), the radix-2 tail of a 1024-point plan and the last
// pass of the 28 672-point plan (radix 7, untwiddled at m = 1, s = 4096). A
// kernel under 1.3x its twin here does not ship (DESIGN.md section 11).
func BenchmarkStages(b *testing.B) {
	shapes := []struct{ r, m, s, xs int }{
		{8, 32, 8, 256}, {8, 4, 64, 64}, {4, 1, 512, 512},
		{8, 32, 1, 1}, {8, 4, 8, 8}, {4, 1, 64, 64},
		{2, 1, 512, 512},
		{7, 1, 4096, 4096},
	}
	for _, sh := range shapes {
		st := &stage{r: sh.r, m: sh.m, s: sh.s, rs: sh.xs, tw: ref.RandomVector((sh.r-1)*sh.m, 1)}
		if sh.r == 8 && sh.s == 1 {
			st.twv = pairTwiddles(st.tw, sh.m)
		}
		if sh.r == 7 {
			st.cs = oddConstants(7)
		}
		x := ref.RandomVector(sh.xs*(sh.r*sh.m-1)+sh.s, 2)
		y := make([]complex128, sh.r*sh.m*sh.s)
		for _, k := range kernels() {
			b.Run(fmt.Sprintf("r=%d/m=%d/s=%d/xs=%d/%s", sh.r, sh.m, sh.s, sh.xs, k), func(b *testing.B) {
				defer useKernel(k)()
				for i := 0; i < b.N; i++ {
					runStage(st, y, x)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sh.m*sh.s), "ns/butterfly")
			})
		}
	}
	// The 8-point codelet over the columns of a lane-major tile, each bin's
	// run stored into its segment vector (the SOI stage-2 shape: 256 columns
	// per tile at the benchmark geometry, 260 apart, segment vectors 2^16
	// long).
	const cols, xs, ys = 256, 260, 1 << 16
	tileX := ref.RandomVector(7*xs+cols, 3)
	segs := make([]complex128, 7*ys+cols)
	p := MustPlan(8)
	for _, k := range kernels() {
		b.Run("dft8-cols/"+k, func(b *testing.B) {
			defer useKernel(k)()
			for i := 0; i < b.N; i++ {
				p.ForwardCols(segs, ys, tileX, xs, cols)
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
