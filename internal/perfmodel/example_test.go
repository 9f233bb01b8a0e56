package perfmodel_test

import (
	"fmt"

	"soifft/internal/perfmodel"
)

// ExampleFig12 is the Section 7 design-space study. The paper's model says
// offload mode is ~25% slower than symmetric mode at 6 GB/s PCIe, because
// both PCIe crossings are exposed, and that the model "can guide to select
// the right coprocessor usage mode". The first table asks how the verdict
// changes with cluster size; the second sweeps PCIe bandwidth at 32 nodes
// to find where offload reaches parity. perfmodel.Default is constants
// only, so the output is checked.
func ExampleFig12() {
	cfg := perfmodel.Default()
	fmt.Printf("%-6s %-14s %-14s %s\n", "nodes", "symmetric (s)", "offload (s)", "offload penalty")
	for _, nodes := range []int{8, 32, 128, 512} {
		rows := perfmodel.Fig12(cfg, nodes)
		sym, off := rows[0], rows[1]
		fmt.Printf("%-6d %-14.3f %-14.3f %+.0f%%\n", nodes, sym.Seconds, off.Seconds, 100*(off.Slower-1))
	}

	fmt.Println()
	fmt.Printf("%-12s %-14s %s\n", "PCIe GB/s", "offload (s)", "penalty at 32 nodes")
	parity := 0.0
	for _, gbps := range []float64{4, 6, 8, 12, 16, 24, 32} {
		c := cfg
		c.PCIe.BytesPerSec = gbps * 1e9
		off := perfmodel.Fig12(c, 32)[1]
		fmt.Printf("%-12.0f %-14.3f %+.1f%%\n", gbps, off.Seconds, 100*(off.Slower-1))
		if parity == 0 && off.Slower < 1.02 {
			parity = gbps
		}
	}
	fmt.Printf("offload reaches parity at %.0f GB/s PCIe (the paper's links: 6 GB/s)\n", parity)

	// Output:
	// nodes  symmetric (s)  offload (s)    offload penalty
	// 8      1.147          1.478          +29%
	// 32     1.160          1.479          +27%
	// 128    1.512          1.819          +20%
	// 512    1.884          2.179          +16%
	//
	// PCIe GB/s    offload (s)    penalty at 32 nodes
	// 4            1.837          +58.3%
	// 6            1.479          +27.5%
	// 8            1.300          +12.0%
	// 12           1.121          -3.4%
	// 16           1.031          -11.1%
	// 24           0.942          -18.8%
	// 32           0.897          -22.7%
	// offload reaches parity at 12 GB/s PCIe (the paper's links: 6 GB/s)
}
