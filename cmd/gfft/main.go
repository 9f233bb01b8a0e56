// Command gfft runs an HPC Challenge G-FFT-style benchmark over the
// in-process cluster: a distributed forward transform of random data, timed
// and scored as 5*N*log2(N)/t GFLOP/s, followed by the distributed inverse
// and the HPCC round-trip residual ||x - x'||_inf / (eps * log2 N). The
// forward result is checked against the library's exact serial FFT: a
// relative L2 error above 1e-6 exits with status 1.
//
// The paper frames its results against the April 2013 HPCC G-FFT rankings
// (K computer: 205.9 TFLOPS on 81,944 nodes; the paper: 6.7 TFLOPS on 512).
// This driver executes the same protocol at laptop scale, and prints the
// per-node projection for the paper's cluster from the calibrated model.
//
//	gfft -n 114688 -ranks 8
//	gfft -n 114688 -ranks 8 -exact     # Cooley-Tukey baseline (exact)
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"sync"
	"time"

	"soifft/internal/cvec"
	"soifft/internal/dist"
	"soifft/internal/fft"
	"soifft/internal/mpi"
	"soifft/internal/perfmodel"
	"soifft/internal/ref"
	"soifft/internal/soi"
	"soifft/internal/window"
)

func main() {
	log.SetFlags(0)
	n := flag.Int("n", 7*8*8*32*8, "transform length") // 114688
	ranks := flag.Int("ranks", 8, "in-process ranks")
	segments := flag.Int("segments", 8, "SOI segments")
	b := flag.Int("b", 72, "convolution width")
	exact := flag.Bool("exact", false, "run the Cooley-Tukey baseline instead of SOI")
	flag.Parse()

	algo := "SOI"
	if *exact {
		algo = "Cooley-Tukey"
	}
	fmt.Printf("G-FFT: %s, N=%d, %d ranks\n", algo, *n, *ranks)

	x := ref.RandomVector(*n, 2013)
	localN := *n / *ranks
	fwd := make([]complex128, *n)
	back := make([]complex128, *n)

	// Plan once (the window design dominates planning); all ranks share it.
	var plan *soi.Plan
	if !*exact {
		p := window.Params{N: *n, Segments: *segments, NMu: 8, DMu: 7, B: *b}
		var err error
		planStart := time.Now()
		plan, err = soi.NewPlan(p, soi.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  planning: %v (shared across ranks and transforms)\n", time.Since(planStart).Round(time.Millisecond))
	}

	runDist := func(out []complex128, in []complex128, inverse bool) time.Duration {
		var mu sync.Mutex
		start := time.Now()
		err := mpi.Run(*ranks, func(c mpi.Comm) error {
			r := c.Rank()
			dst := make([]complex128, localN)
			src := in[r*localN : (r+1)*localN]
			if *exact {
				ct, err := dist.NewCT(c, *n, 0)
				if err != nil {
					return err
				}
				if inverse {
					// Conjugation identity around the forward baseline.
					cc := make([]complex128, localN)
					for i, v := range src {
						cc[i] = complex(real(v), -imag(v))
					}
					if err := ct.Forward(dst, cc); err != nil {
						return err
					}
					inv := 1 / float64(*n)
					for i, v := range dst {
						dst[i] = complex(real(v)*inv, -imag(v)*inv)
					}
				} else if err := ct.Forward(dst, src); err != nil {
					return err
				}
			} else {
				d, err := dist.NewSOIFromPlan(c, plan)
				if err != nil {
					return err
				}
				if inverse {
					err = d.Inverse(dst, src)
				} else {
					err = d.Forward(dst, src)
				}
				if err != nil {
					return err
				}
			}
			mu.Lock()
			copy(out[r*localN:], dst)
			mu.Unlock()
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		return time.Since(start)
	}

	tFwd := runDist(fwd, x, false)
	tInv := runDist(back, fwd, true)

	flops := 5 * float64(*n) * math.Log2(float64(*n))
	fmt.Printf("  forward : %10v  %8.3f GFLOP/s\n", tFwd.Round(time.Millisecond), flops/tFwd.Seconds()/1e9)
	fmt.Printf("  inverse : %10v  %8.3f GFLOP/s\n", tInv.Round(time.Millisecond), flops/tInv.Seconds()/1e9)
	res := ref.GFFTResidual(x, back)
	fmt.Printf("  residual: %.3e  (HPCC accepts <16 for exact FFTs;\n", res)
	fmt.Printf("            SOI's designed approximation error dominates instead — see EXPERIMENTS.md)\n")
	want := make([]complex128, *n)
	fft.MustPlan(*n).Forward(want, x)
	relErr := cvec.RelErrL2(fwd, want)
	fmt.Printf("  rel err : %.3e  (forward vs the serial exact FFT; must be <= 1e-6)\n", relErr)
	if relErr > 1e-6 {
		fmt.Println("  VERIFY: FAIL")
		os.Exit(1)
	}

	// Paper-scale projection from the calibrated model.
	cfg := perfmodel.Default()
	est := cfg.Estimate(perfmodel.SOI, perfmodel.XeonPhi,
		perfmodel.Options{Nodes: 512, PerNode: perfmodel.PerNodeElems, Overlap: true})
	nBig := perfmodel.PerNodeElems * 512
	fmt.Printf("paper-scale projection: %.2f TFLOPS on 512 Xeon Phi nodes (%.1fx the K computer's\n",
		est.TFLOPS(nBig), est.TFLOPS(nBig)/512/(205.9/81944))
	fmt.Printf("  %.4f TFLOPS/node; K computer: 205.9 TFLOPS / 81944 nodes)\n", 205.9/81944)
}
