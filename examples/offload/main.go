// Offload: the Section 7 design-space exploration. The paper's model says
// that in offload mode the two PCIe crossings dominate the node-local work,
// making offload ~25% slower than symmetric mode at 6 GB/s PCIe — and that
// the model "can guide to select the right coprocessor usage mode" when an
// application is being designed. This example asks the model (perfmodel.Fig12)
// how the verdict changes with cluster size, and at what PCIe bandwidth
// offload stops mattering.
package main

import (
	"fmt"

	"soifft/internal/perfmodel"
)

func main() {
	cfg := perfmodel.Default()
	fmt.Println("== symmetric vs offload mode (Section 7 / Fig 12) ==")
	fmt.Printf("  %-6s %-14s %-14s %s\n", "nodes", "symmetric (s)", "offload (s)", "offload penalty")
	for _, nodes := range []int{8, 32, 128, 512} {
		rows := perfmodel.Fig12(cfg, nodes)
		sym, off := rows[0], rows[1]
		fmt.Printf("  %-6d %-14.3f %-14.3f %+.0f%%\n", nodes, sym.Seconds, off.Seconds, 100*(off.Slower-1))
	}

	fmt.Println()
	fmt.Println("== PCIe bandwidth sweep at 32 nodes: when does offload stop hurting? ==")
	fmt.Printf("  %-12s %-14s %s\n", "PCIe GB/s", "offload (s)", "penalty vs symmetric")
	crossover := -1.0
	for _, gbps := range []float64{4, 6, 8, 12, 16, 24, 32} {
		c := cfg
		c.PCIe.BytesPerSec = gbps * 1e9
		off := perfmodel.Fig12(c, 32)[1]
		pen := off.Slower - 1
		fmt.Printf("  %-12.0f %-14.3f %+.1f%%\n", gbps, off.Seconds, 100*pen)
		if crossover < 0 && pen < 0.02 {
			crossover = gbps
		}
	}
	if crossover > 0 {
		fmt.Printf("\noffload reaches parity at roughly %.0f GB/s PCIe — above the paper-era 6 GB/s,\n", crossover)
		fmt.Println("which is why the paper runs in symmetric mode.")
	} else {
		fmt.Println("\noffload never reaches parity in the swept range.")
	}
}
