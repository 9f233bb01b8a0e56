// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md for the index, EXPERIMENTS.md for results).
//
// Figures 10 and 11 are true measurements of this repository's kernels on
// the host; the model figures (3, 8, 9, 12) run their generators
// and publish the headline quantities as benchmark metrics so a regression
// in either the model or its calibration shows up in benchmark diffs.
//
// Run: go test -bench=. -benchmem .
package soifft

import (
	"fmt"
	"testing"

	"soifft/internal/conv"
	"soifft/internal/cvec"
	"soifft/internal/dist"
	"soifft/internal/fft"
	"soifft/internal/machine"
	"soifft/internal/mpi"
	"soifft/internal/perfmodel"
	"soifft/internal/ref"
	"soifft/internal/soi"
	"soifft/internal/window"
)

// BenchmarkTable2Bops publishes the Table 2 machine balance numbers.
func BenchmarkTable2Bops(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = machine.XeonE5().Bops() + machine.XeonPhi().Bops()
	}
	_ = sink
	b.ReportMetric(machine.XeonE5().Bops(), "xeon-bops")
	b.ReportMetric(machine.XeonPhi().Bops(), "phi-bops")
	b.ReportMetric(machine.MaxFFTEfficiency(machine.XeonPhi(), 512, 2), "phi-fft-eff-bound")
}

// BenchmarkFig3Model regenerates Fig. 3 and publishes the two speedups the
// paper quotes (~1.7x SOI, ~1.14x Cooley-Tukey).
func BenchmarkFig3Model(b *testing.B) {
	cfg := perfmodel.Default()
	var rows []perfmodel.Fig3Row
	for i := 0; i < b.N; i++ {
		rows = Fig3Rows(cfg)
	}
	soiSpeed := rows[2].Seconds / rows[3].Seconds
	ctSpeed := rows[0].Seconds / rows[1].Seconds
	b.ReportMetric(soiSpeed, "soi-phi-speedup")
	b.ReportMetric(ctSpeed, "ct-phi-speedup")
}

// Fig3Rows is exported for the benchmark above (thin indirection so the
// benchmark exercises the real generator).
func Fig3Rows(cfg perfmodel.Config) []perfmodel.Fig3Row { return perfmodel.Fig3(cfg) }

// BenchmarkFig8WeakScaling regenerates the Fig. 8 sweep from the model,
// publishing the headline TFLOPS numbers.
func BenchmarkFig8WeakScaling(b *testing.B) {
	cfg := perfmodel.Default()
	var rows []perfmodel.Fig8Row
	for i := 0; i < b.N; i++ {
		rows = perfmodel.Fig8(cfg)
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.SOIPhi, "model-tflops-512")
	b.ReportMetric(last.SpeedupSOI, "soi-speedup-512")
}

// BenchmarkFig9Breakdown regenerates the Fig. 9 breakdowns and publishes
// the exposed-MPI fraction at 512 Xeon Phi nodes.
func BenchmarkFig9Breakdown(b *testing.B) {
	cfg := perfmodel.Default()
	var rows []perfmodel.Fig9Row
	for i := 0; i < b.N; i++ {
		rows = perfmodel.Fig9(cfg)
	}
	for _, r := range rows {
		if r.Platform == perfmodel.XeonPhi && r.Nodes == 512 {
			b.ReportMetric(r.Estimate.ExposedMPI/r.Estimate.Total, "phi512-mpi-fraction")
		}
	}
}

// BenchmarkFig10LocalFFT measures the first two steps of the Fig. 10
// ablation for real: the naive and optimized 6-step local FFTs on this host.
// The paper's axis is GFLOPS on a 16M-point transform on one Xeon Phi card;
// here the size is 1M (scaled to CI budgets — pass -timeout and edit fig10N
// for the full 16M run) and the machine is the host, so the *ordering* is
// the reproduced result. The last two steps, latency hiding and fine-grain
// row FFTs, need Phi's SMT threads and 512 KB private L2, and are not run.
const fig10N = 1 << 20

func BenchmarkFig10LocalFFT(b *testing.B) {
	x := ref.RandomVector(fig10N, 1)
	want := make([]complex128, fig10N)
	fft.MustPlan(fig10N).Forward(want, x)
	for _, v := range fft.AllVariants {
		b.Run(v.String(), func(b *testing.B) {
			plan, err := fft.NewSixStep(fig10N, v, 0)
			if err != nil {
				b.Fatal(err)
			}
			out := make([]complex128, fig10N)
			b.SetBytes(int64(v.MemorySweeps()) * fig10N * 16 / 2) // loads+stores per sweep pair
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan.Forward(out, x)
			}
			b.StopTimer()
			if e := cvec.RelErrL2(out, want); e > 1e-10 {
				b.Fatalf("wrong result: %g", e)
			}
			b.ReportMetric(machine.FFTFlops(fig10N)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

// BenchmarkFig11Convolution measures the Fig. 11 ablation for real: the
// convolution variants across a growing segment count (the paper's
// node-count axis; the working-set growth that interchange+buffering fix
// scales with the segment count).
func BenchmarkFig11Convolution(b *testing.B) {
	const chunks = 64
	for _, segs := range []int{8, 32, 64} {
		p := window.Params{N: segs * segs * 7 * chunks, Segments: segs, NMu: 8, DMu: 7, B: 72}
		f, err := window.Design(p)
		if err != nil {
			b.Fatal(err)
		}
		x := ref.RandomVector(conv.InputLen(f, 0, chunks), 2)
		u := make([]complex128, conv.OutputLen(f, 0, chunks))
		for _, v := range conv.AllVariants {
			b.Run(fmt.Sprintf("%s/segments=%d", v, segs), func(b *testing.B) {
				b.SetBytes(int64(conv.OutputLen(f, 0, chunks)) * 16)
				for i := 0; i < b.N; i++ {
					conv.Apply(v, f, u, x, 0, chunks, 0)
				}
				flops := 8 * float64(f.B) * float64(len(u))
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
			})
		}
	}
}

// BenchmarkFig12Offload regenerates the Section 7 comparison and publishes
// the offload penalty.
func BenchmarkFig12Offload(b *testing.B) {
	cfg := perfmodel.Default()
	var rows []perfmodel.Fig12Row
	for i := 0; i < b.N; i++ {
		rows = perfmodel.Fig12(cfg, 32)
	}
	b.ReportMetric(rows[1].Slower, "offload-penalty")
}

// BenchmarkDistributedSOIvsCT runs both real distributed algorithms over
// in-process ranks on the same input — the end-to-end Fig. 1 vs Fig. 2
// comparison as executable code. The quantity of interest on a shared-
// memory host is correctness + the all-to-all volume, which the paper's
// model translates to cluster time; see BenchmarkFig8WeakScaling for that.
func BenchmarkDistributedSOIvsCT(b *testing.B) {
	const world = 4
	p := window.Params{N: 7 * 8 * 8 * 64, Segments: 8, NMu: 8, DMu: 7, B: 72} // N = 28672
	x := ref.RandomVector(p.N, 3)
	localN := p.N / world

	b.Run("SOI", func(b *testing.B) {
		plan, err := soi.NewPlan(p, soi.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		dst := make([]complex128, p.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			err := mpi.Run(world, func(c mpi.Comm) error {
				d, err := dist.NewSOIFromPlan(c, plan)
				if err != nil {
					return err
				}
				r := c.Rank()
				return d.Forward(dst[r*localN:(r+1)*localN], x[r*localN:(r+1)*localN])
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(machine.FFTFlops(p.N)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
	})
	b.Run("CooleyTukey", func(b *testing.B) {
		dst := make([]complex128, p.N)
		for i := 0; i < b.N; i++ {
			err := mpi.Run(world, func(c mpi.Comm) error {
				d, err := dist.NewCT(c, p.N, 1)
				if err != nil {
					return err
				}
				r := c.Rank()
				return d.Forward(dst[r*localN:(r+1)*localN], x[r*localN:(r+1)*localN])
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(machine.FFTFlops(p.N)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
	})
}

// BenchmarkPublicPlan measures the end-to-end public API transform.
func BenchmarkPublicPlan(b *testing.B) {
	n := 448 * 16 // 7168
	plan, err := NewPlan(n, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	x := ref.RandomVector(n, 5)
	dst := make([]complex128, n)
	b.SetBytes(int64(n) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := plan.Forward(dst, x); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(machine.FFTFlops(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}
