// Command soibench regenerates the tables and figures of the paper's
// evaluation (see DESIGN.md for the experiment index and EXPERIMENTS.md for
// paper-vs-reproduced numbers).
//
// Usage:
//
//	soibench -table 2          # Xeon vs Xeon Phi spec comparison
//	soibench -table 3          # experiment setup
//	soibench -fig 3            # modeled CT/SOI x Xeon/Phi, 32 nodes
//	soibench -fig 8            # weak scaling 4..512 nodes (model)
//	soibench -fig 9            # SOI execution-time breakdowns
//	soibench -fig 10           # local FFT optimization ablation (measured)
//	soibench -fig 11           # convolution optimization ablation (measured)
//	soibench -fig 12           # symmetric vs offload mode
//	soibench -verify           # run the real distributed SOI and check error
//	soibench -all              # everything
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"soifft"
	"soifft/internal/conv"
	"soifft/internal/cvec"
	"soifft/internal/fft"
	"soifft/internal/machine"
	"soifft/internal/perfmodel"
	"soifft/internal/ref"
	"soifft/internal/soi"
	"soifft/internal/trace"
	"soifft/internal/window"
)

func main() {
	fig := flag.String("fig", "", "comma-separated figure numbers to regenerate (3,8,9,10,11,12)")
	table := flag.String("table", "", "comma-separated table numbers to regenerate (1,2,3)")
	verify := flag.Bool("verify", false, "run the real distributed SOI in-process and verify vs the serial FFT")
	extra := flag.Bool("extra", false, "extension studies: segments-per-process trade-off, hybrid mode, (mu,B) accuracy grid")
	all := flag.Bool("all", false, "regenerate everything")
	size := flag.Int("size", 1<<22, "local FFT size for the Fig 10 measurement")
	convChunks := flag.Int("conv-chunks", 256, "chunks per node for the Fig 11 measurement")
	flag.Parse()

	ran := false
	want := func(list string, id string) bool {
		if *all {
			return true
		}
		for _, f := range strings.Split(list, ",") {
			if strings.TrimSpace(f) == id {
				return true
			}
		}
		return false
	}
	for _, id := range []string{"1", "2", "3"} {
		if want(*table, id) {
			ran = true
			printTable(id)
		}
	}
	for _, id := range []string{"3", "8", "9", "10", "11", "12"} {
		if want(*fig, id) {
			ran = true
			printFigure(id, *size, *convChunks)
		}
	}
	if *verify || *all {
		ran = true
		runVerify()
	}
	if *extra || *all {
		ran = true
		runExtraStudies()
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func printTable(id string) {
	switch id {
	case "1":
		fmt.Println("== Table 1: Notation ==")
		rows := [][2]string{
			{"N", "number of input elements"},
			{"P", "number of segments / compute nodes"},
			{"M = N/P", "number of input elements per node"},
			{"mu = nmu/dmu", "oversampling factor (typically <= 5/4; Table 3 uses 8/7)"},
			{"N' = mu*N, M' = mu*M", "oversampled sizes"},
			{"W", "matrix used in convolution-and-oversampling"},
			{"B", "convolution width, typical value 72"},
		}
		for _, r := range rows {
			fmt.Printf("  %-22s %s\n", r[0], r[1])
		}
	case "2":
		fmt.Println("== Table 2: Comparison of Xeon and Xeon Phi ==")
		x, p := machine.XeonE5(), machine.XeonPhi()
		fmt.Printf("  %-28s %-18s %s\n", "", "Xeon E5-2680", "Xeon Phi SE10")
		fmt.Printf("  %-28s %dx%dx%dx%d %10s %dx%dx%dx%d\n", "Socket x core x smt x simd",
			x.Sockets, x.CoresPerSocket, x.SMT, x.SIMDWidth, "",
			p.Sockets, p.CoresPerSocket, p.SMT, p.SIMDWidth)
		fmt.Printf("  %-28s %-18.1f %.1f\n", "Clock (GHz)", x.ClockGHz, p.ClockGHz)
		fmt.Printf("  %-28s %d/%d/%-11d %d/%d/-\n", "L1/L2/L3 Cache (KB)", x.L1KB, x.L2KB, x.L3KB, p.L1KB, p.L2KB)
		fmt.Printf("  %-28s %-18.0f %.0f\n", "DP GFLOP/s", x.PeakGFlops, p.PeakGFlops)
		fmt.Printf("  %-28s %-18.0f %.0f\n", "Stream bandwidth (GB/s)", x.StreamGBps, p.StreamGBps)
		fmt.Printf("  %-28s %-18.2f %.2f\n", "Bytes per Ops", x.Bops(), p.Bops())
	case "3":
		fmt.Println("== Table 3: Experiment setup (simulated Stampede) ==")
		f := machine.StampedeFDR()
		fmt.Printf("  Processor        : see Table 2\n")
		fmt.Printf("  PCIe bandwidth   : %.0f GB/s\n", machine.StampedePCIe().BytesPerSec/1e9)
		fmt.Printf("  Interconnect     : FDR InfiniBand model, %.0f GiB/s/node at %d nodes, %.0f%%/doubling congestion\n",
			f.PerNodeBytesPerSec/machine.GiB, f.BaseNodes, 100*f.CongestionPerLog2)
		fmt.Printf("  SOI              : 8 or 2 segments/process, mu = 8/7, B = 72\n")
		fmt.Printf("  Runtime          : Go %s, GOMAXPROCS=%d\n", runtime.Version(), runtime.GOMAXPROCS(0))
	}
}

func printFigure(id string, size, convChunks int) {
	cfg := perfmodel.Default()
	switch id {
	case "3":
		fmt.Println("== Fig 3: Estimated performance improvements (32 nodes, N = 2^27*32) ==")
		fmt.Printf("  %-24s %-10s %-8s %-8s %-8s %s\n", "configuration", "normalized", "localFFT", "conv", "MPI", "seconds")
		for _, r := range perfmodel.Fig3(cfg) {
			fmt.Printf("  %-24s %-10.3f %-8.3f %-8.3f %-8.3f %.3f\n",
				fmt.Sprintf("%s / %s", r.Algorithm, r.Platform),
				r.Normalized, r.LocalFFT, r.Conv, r.MPI, r.Seconds)
		}
	case "8":
		fmt.Println("== Fig 8: Weak scaling FFT performance (2^27 points/node), TFLOPS ==")
		fmt.Printf("  %-6s %-9s %-9s %-9s %-9s %-10s %s\n", "nodes", "CT Xeon", "CT Phi", "SOI Xeon", "SOI Phi", "speedupCT", "speedupSOI")
		for _, r := range perfmodel.Fig8(cfg) {
			fmt.Printf("  %-6d %-9.2f %-9.2f %-9.2f %-9.2f %-10.2f %.2f\n",
				r.Nodes, r.CTXeon, r.CTPhi, r.SOIXeon, r.SOIPhi, r.SpeedupCT, r.SpeedupSOI)
		}
	case "9":
		fmt.Println("== Fig 9: Execution time breakdowns of SOI (seconds) ==")
		fmt.Printf("  %-10s %-6s %-10s %-12s %-12s %-8s %s\n", "platform", "nodes", "local FFT", "convolution", "exposed MPI", "etc.", "total")
		for _, r := range perfmodel.Fig9(cfg) {
			e := r.Estimate
			fmt.Printf("  %-10s %-6d %-10.3f %-12.3f %-12.3f %-8.3f %.3f\n",
				r.Platform, r.Nodes, e.LocalFFT, e.Conv, e.ExposedMPI, e.Etc, e.Total)
		}
	case "10":
		runFig10(size)
	case "11":
		runFig11(convChunks)
	case "12":
		fmt.Println("== Fig 12 / Section 7: Symmetric vs offload mode (32 nodes) ==")
		for _, r := range perfmodel.Fig12(cfg, 32) {
			fmt.Printf("  %-10s %-8.3f s   (%.0f%% of symmetric)\n", r.Mode, r.Seconds, 100*r.Slower)
		}
	}
}

// runFig10 measures the local-FFT ablation of Fig. 10 on this host and
// reports the modeled Xeon Phi numbers beside it. Only the first two steps,
// 6-step-naive and 6-step-opt, run: the last two (latency hiding and
// fine-grain row FFTs) need Phi's SMT threads and 512 KB private L2.
func runFig10(n int) {
	fmt.Printf("== Fig 10: %dM-point local FFT optimization ablation ==\n", n>>20)
	x := ref.RandomVector(n, 1)
	out := make([]complex128, n)
	ref2 := make([]complex128, n)
	fft.MustPlan(n).Forward(ref2, x)
	flops := machine.FFTFlops(n)
	fmt.Printf("  %-16s %-12s %-10s %s\n", "variant", "this host", "sweeps", "modeled Phi GF/s")
	phi := machine.XeonPhi()
	for _, v := range fft.AllVariants {
		plan, err := fft.NewSixStep(n, v, 0)
		if err != nil {
			fmt.Printf("  %-16s unavailable: %v\n", v, err)
			continue
		}
		best := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			start := time.Now()
			plan.Forward(out, x)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		if e := cvec.RelErrL2(out, ref2); e > 1e-10 {
			fmt.Printf("  %-16s WRONG RESULT (%g)\n", v, e)
			continue
		}
		gfs := flops / best.Seconds() / 1e9
		// Modeled Phi rate: bandwidth-bound at sweeps x 16 bytes per
		// element, capped by the paper's measured 12% efficiency ceiling.
		sweeps := v.MemorySweeps()
		bwTime := float64(sweeps) * 16 * float64(n) / (phi.StreamGBps * 1e9)
		modeled := flops / bwTime / 1e9
		if lim := 0.125 * phi.PeakGFlops; modeled > lim {
			modeled = lim
		}
		fmt.Printf("  %-16s %6.2f GF/s   %-10d %6.1f\n", v, gfs, sweeps, modeled)
	}
}

// runFig11 measures the convolution ablation of Fig. 11 on this host across
// a segment-count sweep standing in for the node-count axis.
func runFig11(chunks int) {
	fmt.Println("== Fig 11: convolution-and-oversampling optimization ablation ==")
	fmt.Printf("  %-14s", "segments:")
	segCounts := []int{4, 8, 16, 32, 64}
	for _, s := range segCounts {
		fmt.Printf(" %8d", s)
	}
	fmt.Println("   (time per output element, ns)")
	for _, v := range conv.AllVariants {
		fmt.Printf("  %-14s", v)
		for _, s := range segCounts {
			p := window.Params{N: s * s * 7 * chunks, Segments: s, NMu: 8, DMu: 7, B: 72}
			f, err := window.Design(p)
			if err != nil {
				fmt.Printf(" %8s", "n/a")
				continue
			}
			c1 := chunks
			x := ref.RandomVector(conv.InputLen(f, 0, c1), 2)
			u := make([]complex128, conv.OutputLen(f, 0, c1))
			best := time.Duration(1 << 62)
			for i := 0; i < 3; i++ {
				start := time.Now()
				conv.Apply(v, f, u, x, 0, c1, 0)
				if d := time.Since(start); d < best {
					best = d
				}
			}
			fmt.Printf(" %8.1f", float64(best.Nanoseconds())/float64(len(u)))
		}
		fmt.Println()
	}
}

func runVerify() {
	fmt.Println("== Verification: real distributed SOI (in-process ranks) vs serial FFT ==")
	for _, tc := range [][4]int{{2, 8, 4, 72}, {4, 8, 4, 72}, {8, 8, 4, 72}, {4, 16, 2, 72}} {
		world, segments, chunks := tc[0], tc[1], tc[2]
		n := 7 * segments * chunks * segments
		relErr, stats, err := verifyCluster(world, segments, tc[3], n)
		if err != nil {
			fmt.Printf("  world=%d: %v\n", world, err)
			continue
		}
		ms := func(phase string) float64 { return 1000 * stats.PhaseSeconds[phase] }
		fmt.Printf("  world=%d segments=%d N=%d: rel err %.2e (conv %.1fms, fft %.1fms, mpi %.1fms)\n",
			world, segments, n, relErr,
			ms(trace.PhaseConv), ms(trace.PhaseLocalFFT), ms(trace.PhaseExposedMPI))
	}
}

// verifyCluster runs one n-point forward transform through soifft.Cluster
// on world in-process ranks and returns its error against the serial FFT.
func verifyCluster(world, segments, b, n int) (float64, *soifft.RunStats, error) {
	cfg := soifft.DefaultConfig()
	cfg.Segments, cfg.ConvWidth = segments, b
	cl, err := soifft.NewCluster(world, cfg)
	if err != nil {
		return 0, nil, err
	}
	x := ref.RandomVector(n, 12345)
	got := make([]complex128, n)
	stats, err := cl.Forward(got, x)
	if err != nil {
		return 0, nil, err
	}
	want := make([]complex128, n)
	fft.MustPlan(n).Forward(want, x)
	return cvec.RelErrL2(got, want), stats, nil
}

// runExtraStudies prints the design-space explorations the paper discusses
// but does not plot: the segments-per-process trade-off (Section 6.1), the
// hybrid coprocessor mode (Section 7), and the measured (mu, B)
// accuracy/cost grid behind Table 1's "typically <= 5/4" and B = 72.
func runExtraStudies() {
	cfg := perfmodel.Default()

	fmt.Println("== Extra: segments-per-process trade-off (SOI on Xeon Phi) ==")
	fmt.Printf("  %-6s", "nodes")
	segs := []int{1, 2, 4, 8, 16}
	for _, s := range segs {
		fmt.Printf(" %8s", fmt.Sprintf("S=%d", s))
	}
	fmt.Println("   (total seconds; * = paper's policy)")
	for _, nodes := range []int{32, 128, 512} {
		fmt.Printf("  %-6d", nodes)
		rows := cfg.SegmentsStudy(perfmodel.XeonPhi, nodes, segs)
		for _, r := range rows {
			mark := " "
			if r.Segments == perfmodel.SegmentsFor(nodes) {
				mark = "*"
			}
			fmt.Printf(" %7.3f%s", r.Total, mark)
		}
		fmt.Println()
	}

	fmt.Println("== Extra: hybrid mode (Xeon + Xeon Phi per node, Section 7) ==")
	for _, nodes := range []int{32, 512} {
		opt := perfmodel.Options{Nodes: nodes, PerNode: perfmodel.PerNodeElems, Overlap: true}
		phi := cfg.Estimate(perfmodel.SOI, perfmodel.XeonPhi, opt)
		hyb := cfg.EstimateHybrid(opt)
		fmt.Printf("  %3d nodes: Phi-only %.3fs, hybrid %.3fs (+%.1f%% — paper expects <10%%)\n",
			nodes, phi.Total, hyb.Total, 100*(phi.Total/hyb.Total-1))
	}

	fmt.Println("== Extra: measured (mu, B) accuracy grid (small N, real transforms) ==")
	fmt.Printf("  %-8s %-4s %-14s %-14s %s\n", "mu", "B", "designed bound", "measured err", "conv flops / fft flops @2^32")
	type cfgRow struct{ nmu, dmu, b int }
	for _, r := range []cfgRow{{8, 7, 24}, {8, 7, 48}, {8, 7, 72}, {5, 4, 48}, {5, 4, 72}, {4, 3, 48}} {
		segments, chunks := 4, 16
		m := r.dmu * segments * chunks
		p := window.Params{N: m * segments, Segments: segments, NMu: r.nmu, DMu: r.dmu, B: r.b}
		f, err := window.Design(p)
		if err != nil {
			fmt.Printf("  %d/%-6d %-4d design failed: %v\n", r.nmu, r.dmu, r.b, err)
			continue
		}
		measured := measureAccuracy(p)
		cost := perfmodel.AccuracyCostStudy(float64(uint64(1)<<32),
			[]perfmodel.AccuracyRow{{NMu: r.nmu, DMu: r.dmu, B: r.b}})[0].ConvFlops
		fmt.Printf("  %d/%-6d %-4d %-14.2e %-14.2e %.2fx\n",
			r.nmu, r.dmu, r.b, f.AliasBound(), measured, cost)
	}
}

// measureAccuracy runs a real sequential SOI transform and compares it to
// the exact FFT.
func measureAccuracy(p window.Params) float64 {
	pl, err := soi.NewPlan(p, soi.DefaultOptions())
	if err != nil {
		return math.NaN()
	}
	x := ref.RandomVector(p.N, 99)
	got := make([]complex128, p.N)
	if err := pl.Forward(got, x); err != nil {
		return math.NaN()
	}
	want := make([]complex128, p.N)
	fft.MustPlan(p.N).Forward(want, x)
	return cvec.RelErrL2(got, want)
}
