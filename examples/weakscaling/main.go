// Weakscaling: a miniature of the paper's Fig. 8/Fig. 9 experiment run for
// real on this machine (in-process ranks), next to the calibrated Section 4
// model of the paper's Stampede platform at full scale.
//
// Each rank gets a fixed share of the problem; the rank count doubles from
// 1 to 8. The real runs report measured wall time and per-phase breakdowns
// (the shape of Fig. 9); the model (perfmodel.Fig8) reports the projected
// TFLOPS of the 4..512-node Xeon and Xeon Phi clusters (the shape of Fig. 8).
package main

import (
	"fmt"
	"log"
	"time"

	"soifft"
	"soifft/internal/perfmodel"
	"soifft/internal/ref"
)

func main() {
	const perRank = 7 * 32 * 64 // elements per rank
	fmt.Println("== real weak scaling on this machine (in-process ranks) ==")
	fmt.Printf("  %-6s %-10s %-12s %s\n", "ranks", "N", "wall time", "phase sums")
	for _, ranks := range []int{1, 2, 4, 8} {
		n := perRank * ranks
		cfg := soifft.DefaultConfig()
		cfg.Segments = 8 // constant total segments => valid lengths at every rank count
		x := ref.RandomVector(n, int64(ranks))
		y := make([]complex128, n)
		cl, err := soifft.NewCluster(ranks, cfg)
		if err != nil {
			log.Fatal(err)
		}
		// Warm up the plan caches, then time.
		if _, err := cl.Forward(y, x); err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		stats, err := cl.Forward(y, x)
		if err != nil {
			log.Fatal(err)
		}
		wall := time.Since(start)
		fmt.Printf("  %-6d %-10d %-12v", ranks, n, wall.Round(time.Millisecond))
		for _, ph := range []string{"Convolution", "Local FFT", "Exposed MPI"} {
			fmt.Printf(" %s=%.0fms", ph, 1000*stats.PhaseSeconds[ph])
		}
		fmt.Println()
	}

	fmt.Println()
	fmt.Println("== modelled weak scaling on the paper's platform (2^27 points/node) ==")
	fmt.Printf("  %-6s %-14s %-14s %s\n", "nodes", "SOI Xeon (TF)", "SOI Phi (TF)", "speedup")
	for _, r := range perfmodel.Fig8(perfmodel.Default()) {
		fmt.Printf("  %-6d %-14.2f %-14.2f %.2fx\n", r.Nodes, r.SOIXeon, r.SOIPhi, r.SpeedupSOI)
	}
}
