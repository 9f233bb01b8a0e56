// Package machine holds the hardware models of Table 2 of the paper — the
// dual-socket Xeon E5-2680 node and the Xeon Phi SE10 coprocessor — plus
// the interconnect and PCIe models of Table 3, and the roofline helpers
// (bytes-per-ops) the paper's Section 5.2 analysis is built on.
//
// These models are what replaces the physical Stampede cluster in this
// reproduction: the analytic performance model (internal/perfmodel) charges
// compute time against peak flops x efficiency and data movement against
// STREAM / interconnect / PCIe bandwidths, exactly as the paper's own
// Section 4 model does.
package machine

import (
	"fmt"
	"math"
)

// Node describes one compute device (Table 2).
type Node struct {
	Name           string
	Sockets        int
	CoresPerSocket int
	SMT            int
	SIMDWidth      int // double-precision lanes
	ClockGHz       float64
	L1KB, L2KB     int
	L3KB           int     // 0 = no shared L3 (Xeon Phi has private L2s only)
	PeakGFlops     float64 // double precision
	StreamGBps     float64 // sustained memory bandwidth (STREAM), GB/s
}

// Bops returns the machine bytes-per-ops ratio StreamGBps/PeakGFlops
// (Table 2: 0.23 for the Xeon node, 0.14 for Xeon Phi).
func (n Node) Bops() float64 { return n.StreamGBps / n.PeakGFlops }

// Cores returns the total core count.
func (n Node) Cores() int { return n.Sockets * n.CoresPerSocket }

// HWThreads returns cores x SMT.
func (n Node) HWThreads() int { return n.Cores() * n.SMT }

func (n Node) String() string {
	return fmt.Sprintf("%s: %dx%dx%dx%d @ %.1f GHz, %.0f GF/s, %.0f GB/s (bops %.2f)",
		n.Name, n.Sockets, n.CoresPerSocket, n.SMT, n.SIMDWidth,
		n.ClockGHz, n.PeakGFlops, n.StreamGBps, n.Bops())
}

// XeonE5 returns the dual-socket Xeon E5-2680 node model (Table 2).
func XeonE5() Node {
	return Node{
		Name:           "Xeon E5-2680",
		Sockets:        2,
		CoresPerSocket: 8,
		SMT:            2,
		SIMDWidth:      4,
		ClockGHz:       2.7,
		L1KB:           32,
		L2KB:           256,
		L3KB:           20480,
		PeakGFlops:     346,
		StreamGBps:     79,
	}
}

// XeonPhi returns the Xeon Phi SE10 coprocessor model (Table 2).
func XeonPhi() Node {
	return Node{
		Name:           "Xeon Phi SE10",
		Sockets:        1,
		CoresPerSocket: 61,
		SMT:            4,
		SIMDWidth:      8,
		ClockGHz:       1.1,
		L1KB:           32,
		L2KB:           512,
		L3KB:           0,
		PeakGFlops:     1074,
		StreamGBps:     150,
	}
}

// GiB is the unit the paper's Section 4 arithmetic uses for interconnect
// bandwidth ("3 gb/s" reproduces T_mpi = 0.67 s only with binary giga).
const GiB = float64(1 << 30)

// Fabric models the cluster interconnect (FDR InfiniBand, two-level fat
// tree on Stampede). Per-node bandwidth degrades slowly with scale — the
// paper observes "the time spent on mpi communication slowly increases with
// more nodes, which indicates that the interconnect is not perfectly
// scalable" — and short messages cost extra latency, which is why the paper
// drops from 8 to 2 segments per process at >= 512 nodes.
type Fabric struct {
	PerNodeBytesPerSec float64 // sustained all-to-all bandwidth per node at BaseNodes
	BaseNodes          int     // scale at which PerNodeBytesPerSec was measured
	CongestionPerLog2  float64 // fractional slowdown per doubling beyond BaseNodes
	LatencySec         float64 // per-message latency
	// MsgOverheadBytes models the short-packet inefficiency: a message of
	// size m sustains bw * m/(m+MsgOverheadBytes). This is the effect
	// behind the paper's segment policy — "shorter packets in large
	// clusters, which is a challenge for sustaining a high mpi bandwidth.
	// Using fewer segments per node can mitigate [it] by increasing the
	// packet length" (Section 6.1).
	MsgOverheadBytes float64
}

// StampedeFDR returns the fabric model calibrated to the paper: 3 GiB/s
// per node at 32 nodes (Section 4), with congestion calibrated so the
// modelled weak scaling lands on the paper's headline numbers (>= 1 TFLOPS
// at 64 Xeon Phi nodes, ~6.7 TFLOPS at 512; see EXPERIMENTS.md).
func StampedeFDR() Fabric {
	return Fabric{
		PerNodeBytesPerSec: 3 * GiB,
		BaseNodes:          32,
		CongestionPerLog2:  0.22,
		LatencySec:         3e-6,
		MsgOverheadBytes:   96 << 10,
	}
}

// PerNodeBandwidth returns the effective per-node all-to-all bandwidth at
// the given node count.
func (f Fabric) PerNodeBandwidth(nodes int) float64 {
	if nodes < 1 {
		nodes = 1
	}
	slow := 1.0
	if f.BaseNodes > 0 && nodes > f.BaseNodes {
		d := math.Log2(float64(nodes) / float64(f.BaseNodes))
		slow += f.CongestionPerLog2 * d
	}
	return f.PerNodeBytesPerSec / slow
}

// AllToAllTime returns the modeled wall time for every node to exchange
// totalBytesPerNode, split into the given number of messages (P-1 for the
// pairwise schedule). Message count drives both the latency term and the
// short-packet bandwidth efficiency.
func (f Fabric) AllToAllTime(nodes int, totalBytesPerNode float64, messages int) float64 {
	if nodes <= 1 {
		return 0
	}
	bw := f.PerNodeBandwidth(nodes)
	if messages > 0 && f.MsgOverheadBytes > 0 {
		msg := totalBytesPerNode / float64(messages)
		bw *= msg / (msg + f.MsgOverheadBytes)
	}
	t := totalBytesPerNode / bw
	if messages > 0 {
		t += float64(messages) * f.LatencySec
	}
	return t
}

// PCIe models the host<->coprocessor link (Table 3: 6 GB/s sustained).
type PCIe struct {
	BytesPerSec float64
}

// StampedePCIe returns the paper's PCIe model.
func StampedePCIe() PCIe { return PCIe{BytesPerSec: 6e9} }

// TransferTime returns the time to move the given bytes across the link.
func (p PCIe) TransferTime(bytes float64) float64 { return bytes / p.BytesPerSec }
