package conv

import (
	"flag"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"soifft/internal/ref"
	"soifft/internal/window"
)

func BenchmarkVariants(b *testing.B) {
	const chunks = 64
	for _, segs := range []int{8, 64} {
		p := window.Params{N: segs * segs * 7 * chunks, Segments: segs, NMu: 8, DMu: 7, B: 72}
		f, err := window.Design(p)
		if err != nil {
			b.Fatal(err)
		}
		x := ref.RandomVector(InputLen(f, 0, chunks), 1)
		u := make([]complex128, OutputLen(f, 0, chunks))
		for _, v := range AllVariants {
			b.Run(fmt.Sprintf("%s/segments=%d", v, segs), func(b *testing.B) {
				b.SetBytes(int64(len(u)) * 16)
				for i := 0; i < b.N; i++ {
					Apply(v, f, u, x, 0, chunks, 1)
				}
				// The paper's count, 8*B per output, is the axis of Fig. 11
				// and what Baseline and Interchange execute; Buffered
				// executes 4*B+6 (DESIGN.md Section 2).
				perOutput := float64(b.N) * float64(len(u)) / b.Elapsed().Seconds() / 1e9
				b.ReportMetric(8*float64(f.B)*perOutput, "nominal-GFLOPS")
				executed := 8 * float64(f.B)
				if v == Buffered {
					executed = 4*float64(f.B) + 6
				}
				b.ReportMetric(executed*perOutput, "executed-GFLOPS")
			})
		}
	}
}

// BenchmarkDotRows times the inner kernel alone, in cache, in the call shape
// tileBuffered uses: one lane of a tile at the benchmark geometry, its 8 rows
// (NMu) of B = 72 taps against 32 windows DMu = 7 apart, each sum rotated by
// its phase and stored in the lane-major tile (row stride 1, window stride
// 8), under every kernel the host can execute. A tap costs 4 flops (two
// products, two adds, fused or not); ns/tap and the executed rate are the
// figures the kernel's kill criterion reads.
func BenchmarkDotRows(b *testing.B) {
	d, call := productionDotRows()
	for _, k := range kernels() {
		b.Run(k, func(b *testing.B) {
			defer useKernel(k)()
			for i := 0; i < b.N; i++ {
				call()
			}
			ntaps := float64(b.N) * float64(d.n*d.rows*d.b)
			b.ReportMetric(b.Elapsed().Seconds()*1e9/ntaps, "ns/tap")
			b.ReportMetric(4*ntaps/b.Elapsed().Seconds()/1e9, "executed-GFLOPS")
		})
	}
}

// productionDotRows returns the shape of one tileBuffered dotRows call at the
// benchmark geometry — one lane of a tile, its 8 rows (NMu) of B = 72 taps
// against 32 windows DMu = 7 apart, stored in the lane-major tile (row stride
// 1, window stride 8) — and a call of it on fixed random operands.
func productionDotRows() (dotShape, func()) {
	d := dotShape{rows: 8, b: 72, n: 32, wstep: 7, stride: 1, ostep: 8}
	rng := rand.New(rand.NewSource(1))
	taps, dup, lane := dotOperands(d, rng.NormFloat64)
	phase := phases(d.rows, rng, false)
	out := make([]complex128, d.outLen())
	return d, func() { dotRows(out, d.stride, d.ostep, taps, dup, lane, d.wstep, d.n, phase) }
}

// TestVectorKernelsPay holds each vector kernel to the rule it shipped
// under: at least minGain times as fast as the next kernel down the list
// kernels() gives (avx512 over avx2, avx2 over portable) on
// BenchmarkDotRows's production call. A kernel that still computes the right
// bits but lost its speed — a block that spills, a load that went scalar, a
// dispatch that falls through to the remainder path — passes every other
// test. The times are the best of several interleaved rounds in this one
// process, so a host that drifts moves every kernel alike. On a 2-vCPU Xeon
// host with AVX-512 the ratios were 2.3–2.6 (avx512/avx2) and 4–5
// (avx2/portable).
//
// It times code, so tier-1 skips it; it runs when -run names it, which
// scripts/check.sh does.
func TestVectorKernelsPay(t *testing.T) {
	if !strings.Contains(flag.Lookup("test.run").Value.String(), "TestVectorKernelsPay") {
		t.Skip("times the convolution kernels; run it by name: go test ./internal/conv -run TestVectorKernelsPay")
	}
	ks := kernels()
	if len(ks) == 1 {
		t.Skip("the portable kernel is the only one this host runs")
	}
	const (
		rounds  = 15
		calls   = 400
		minGain = 1.3
	)
	d, call := productionDotRows()
	best := make([]time.Duration, len(ks))
	for round := 0; round < rounds; round++ {
		for i, k := range ks {
			restore := useKernel(k)
			start := time.Now()
			for c := 0; c < calls; c++ {
				call()
			}
			if el := time.Since(start); best[i] == 0 || el < best[i] {
				best[i] = el
			}
			restore()
		}
	}
	perTap := func(i int) float64 { return float64(best[i].Nanoseconds()) / float64(calls*d.n*d.rows*d.b) }
	for i := 0; i+1 < len(ks); i++ {
		gain := float64(best[i+1]) / float64(best[i])
		t.Logf("%s %.3f ns/tap, %s %.3f ns/tap: %.2fx (bound %.1f)", ks[i], perTap(i), ks[i+1], perTap(i+1), gain, minGain)
		if gain < minGain {
			t.Errorf("%s is %.2fx %s on the production call, under the %.1fx it ships for", ks[i], gain, ks[i+1], minGain)
		}
	}
}

// BenchmarkGatherLanes times the staging gather alone, in cache: the 289
// inputs of each of the 8 lanes of one tile at the benchmark geometry
// (T = 32, DMu = 7, B = 72), at the production lane stride, under every
// kernel the host can execute. A kernel under 1.3x its Go twin here does not
// ship.
func BenchmarkGatherLanes(b *testing.B) {
	const s, l = 8, 31*7 + 72
	sl := offLattice(l)
	x := ref.RandomVector(l*s, 1)
	stage := make([]complex128, s*sl)
	for _, k := range kernels() {
		b.Run(k, func(b *testing.B) {
			defer useKernel(k)()
			for i := 0; i < b.N; i++ {
				gatherLanes(stage, sl, x, s, l)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*l*s), "ns/element")
		})
	}
}

func BenchmarkParallelScaling(b *testing.B) {
	const chunks, segs = 64, 32
	p := window.Params{N: segs * segs * 7 * chunks, Segments: segs, NMu: 8, DMu: 7, B: 72}
	f, err := window.Design(p)
	if err != nil {
		b.Fatal(err)
	}
	x := ref.RandomVector(InputLen(f, 0, chunks), 1)
	u := make([]complex128, OutputLen(f, 0, chunks))
	for _, workers := range []int{1, 2, 4, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Apply(Buffered, f, u, x, 0, chunks, workers)
			}
		})
	}
}
