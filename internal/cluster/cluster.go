// Package cluster simulates the paper's experimental platform — a cluster
// of Xeon or Xeon Phi nodes on an FDR InfiniBand fat tree (TACC Stampede,
// Table 3) — well past the scale this repository can physically run.
//
// Two complementary tools live here:
//
//   - Simulate: a discrete-event simulation of one distributed transform.
//     Each rank owns two engines (compute, fabric; plus PCIe in offload
//     mode). The SOI segment pipeline is played out event by event: the
//     all-to-all of segment g occupies the fabric engine while the M'-point
//     FFT of segment g-1 occupies the compute engine, so exposed
//     communication emerges from the schedule rather than from a closed
//     form. Costs come from the machine models (peak flops x measured
//     efficiencies, STREAM, fabric bandwidth with congestion).
//
//   - VerifyRun: executes the *real* distributed algorithm (internal/dist)
//     over an in-process world at a reduced size and reports the measured
//     numerical error and wall-clock breakdown, tying the simulated claims
//     to running code.
package cluster

import (
	"fmt"
	"math"

	"soifft/internal/cvec"
	"soifft/internal/dist"
	"soifft/internal/fft"
	"soifft/internal/machine"
	"soifft/internal/mpi"
	"soifft/internal/perfmodel"
	"soifft/internal/ref"
	"soifft/internal/soi"
	"soifft/internal/trace"
	"soifft/internal/window"
)

// Config describes one simulated run.
type Config struct {
	Nodes    int
	Node     machine.Node
	Fabric   machine.Fabric
	PCIe     machine.PCIe
	PerNode  float64 // complex elements per node (weak scaling: 2^27)
	Segments int     // segments per process (0 = paper policy)
	Overlap  bool
	Offload  bool // Section 7 offload mode

	Algorithm perfmodel.Algorithm

	EffFFT  float64 // 0 = paper's 12%
	EffConv float64 // 0 = paper's 40%

	B        int // 0 = 72
	NMu, DMu int // 0 = 8/7
	// FuseDemod controls whether demodulation is fused into the local FFT
	// (Xeon Phi path) or costs separate memory sweeps (out-of-the-box
	// library path on Xeon).
	FuseDemod bool
}

// withDefaults fills zero fields with the paper's configuration.
func (c Config) withDefaults() Config {
	if c.Node.PeakGFlops == 0 {
		c.Node = machine.XeonPhi()
	}
	if c.Fabric.PerNodeBytesPerSec == 0 {
		c.Fabric = machine.StampedeFDR()
	}
	if c.PCIe.BytesPerSec == 0 {
		c.PCIe = machine.StampedePCIe()
	}
	if c.PerNode == 0 {
		c.PerNode = perfmodel.PerNodeElems
	}
	if c.Segments == 0 {
		c.Segments = perfmodel.SegmentsFor(c.Nodes)
	}
	if c.EffFFT == 0 {
		c.EffFFT = 0.12
	}
	if c.EffConv == 0 {
		c.EffConv = 0.40
	}
	if c.B == 0 {
		c.B = 72
	}
	if c.NMu == 0 {
		c.NMu, c.DMu = 8, 7
	}
	return c
}

// Result is the outcome of a simulated transform.
type Result struct {
	Config      Config
	VirtualTime float64            // seconds, completion of the slowest rank
	Breakdown   map[string]float64 // per-rank seconds by Fig. 9 phase
	TFLOPS      float64            // 5 N log2 N / time, in TF
}

// Simulate plays one distributed transform through the event model.
func Simulate(cfg Config) Result {
	cfg = cfg.withDefaults()
	nTotal := cfg.PerNode * float64(cfg.Nodes)
	mu := float64(cfg.NMu) / float64(cfg.DMu)
	peak := cfg.Node.PeakGFlops * 1e9
	stream := cfg.Node.StreamGBps * 1e9

	bd := map[string]float64{}
	var done float64

	switch cfg.Algorithm {
	case perfmodel.CooleyTukey:
		// Three synchronous all-to-alls around the two local passes; the
		// baseline has no overlap machinery.
		tFFT := 5 * nTotal * math.Log2(nTotal) / (cfg.EffFFT * peak * float64(cfg.Nodes))
		tX := alltoallTime(cfg, 16*cfg.PerNode, 1)
		bd[trace.PhaseLocalFFT] = tFFT
		bd[trace.PhaseExposedMPI] = 3 * tX
		done = tFFT + 3*tX

	case perfmodel.SOI:
		s := float64(cfg.Segments)
		// Per-rank stage costs.
		tConv := 8 * float64(cfg.B) * mu * nTotal / (cfg.EffConv * peak * float64(cfg.Nodes))
		tFFTAll := 5 * mu * nTotal * math.Log2(mu*nTotal) / (cfg.EffFFT * peak * float64(cfg.Nodes))
		tFFTSeg := tFFTAll / s
		tXSeg := alltoallTime(cfg, 16*mu*cfg.PerNode/s, 1)
		// Unfused demodulation costs 3 extra sweeps of the oversampled
		// data; packing for the exchange costs 2 either way.
		etcSweeps := 2.0
		if !cfg.FuseDemod {
			etcSweeps += 3
		}
		tEtc := etcSweeps * 16 * mu * cfg.PerNode / stream

		// Event-driven pipeline: fabric and compute engines per rank.
		// (All ranks are identical under weak scaling, so one rank's
		// schedule is the cluster's.)
		var fabricFree, computeFree float64
		var pciFree float64
		convDone := tConv
		bd[trace.PhaseConv] = tConv
		if cfg.Offload {
			// Input must cross PCIe before the node can convolve.
			down := cfg.PCIe.TransferTime(16 * cfg.PerNode)
			pciFree = down
			convDone = down + tConv
			bd["PCIe"] += down
		}
		computeFree = convDone
		exposed := 0.0
		for g := 0; g < cfg.Segments; g++ {
			// Exchange g starts when the fabric is free (the convolution
			// produced every segment's data already). Without overlap the
			// exchange additionally waits for the previous finish.
			xStart := math.Max(fabricFree, convDone)
			if !cfg.Overlap {
				xStart = math.Max(xStart, computeFree)
			}
			xEnd := xStart + tXSeg
			fabricFree = xEnd
			// Finish (M'-FFT + demod) needs the exchange and the engine.
			fStart := math.Max(xEnd, computeFree)
			exposed += math.Max(0, fStart-computeFree)
			fEnd := fStart + tFFTSeg
			computeFree = fEnd
			if cfg.Offload {
				// Segment output crosses PCIe back to the host.
				up := cfg.PCIe.TransferTime(16 * cfg.PerNode / s)
				pStart := math.Max(pciFree, fEnd)
				pciFree = pStart + up
				bd["PCIe"] += up
			}
		}
		done = computeFree + tEtc
		if cfg.Offload && pciFree > done {
			done = pciFree
		}
		bd[trace.PhaseLocalFFT] = tFFTAll
		bd[trace.PhaseExposedMPI] = exposed
		bd[trace.PhaseEtc] = tEtc
	}

	return Result{
		Config:      cfg,
		VirtualTime: done,
		Breakdown:   bd,
		TFLOPS:      5 * nTotal * math.Log2(nTotal) / done / 1e12,
	}
}

// alltoallTime returns the fabric time for each rank to exchange
// bytesPerNode in one all-to-all round set (P-1 pairwise messages).
func alltoallTime(cfg Config, bytesPerNode float64, rounds int) float64 {
	if cfg.Nodes <= 1 {
		return 0
	}
	return cfg.Fabric.AllToAllTime(cfg.Nodes, bytesPerNode, (cfg.Nodes-1)*rounds)
}

// WeakScaling sweeps Fig. 8's node counts for one (algorithm, node type)
// pair and returns the simulated TFLOPS per point.
func WeakScaling(base Config, nodes []int) []Result {
	out := make([]Result, 0, len(nodes))
	for _, n := range nodes {
		c := base
		c.Nodes = n
		c.Segments = 0 // re-derive per scale
		out = append(out, Simulate(c))
	}
	return out
}

// StrongScaling fixes the total problem size and sweeps the node count —
// the regime of the K computer comparison the paper leaves as future work
// ("it remains as future work to show scalability of our implementation to
// a similar level"). Per-node work shrinks while the all-to-all message
// count grows, so parallel efficiency decays faster than under weak
// scaling.
func StrongScaling(base Config, nTotal float64, nodes []int) []Result {
	out := make([]Result, 0, len(nodes))
	for _, n := range nodes {
		c := base
		c.Nodes = n
		c.PerNode = nTotal / float64(n)
		c.Segments = 0
		out = append(out, Simulate(c))
	}
	return out
}

// VerifyResult ties the simulation to reality: the real distributed SOI
// executed in-process at a reduced size.
type VerifyResult struct {
	Params    window.Params
	World     int
	RelErr    float64
	Breakdown *trace.Breakdown // measured wall clock, summed over ranks
}

// VerifyRun executes the real dist.SOI over an in-process world and checks
// it against the serial FFT. segments is the total segment count; world the
// rank count.
func VerifyRun(world, segments, chunksPerSeg, b int) (*VerifyResult, error) {
	return VerifyRunComm(world, segments, chunksPerSeg, b, nil)
}

// VerifyRunComm is VerifyRun with a per-rank communicator hook: when wrap is
// non-nil each rank's comm is passed through it before the distributed SOI
// runs. This is the seam the fault-injection harness uses to drive the full
// verification pipeline over a faulty transport; wrapped comms that expose
// Flush (pending delayed deliveries) are flushed after a successful run so
// injected delays cannot leak past the verification barrier.
func VerifyRunComm(world, segments, chunksPerSeg, b int, wrap func(mpi.Comm) mpi.Comm) (*VerifyResult, error) {
	p := window.Params{
		N:        7 * segments * chunksPerSeg * segments,
		Segments: segments,
		NMu:      8, DMu: 7,
		B: b,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	x := ref.RandomVector(p.N, 12345)
	want := make([]complex128, p.N)
	fft.MustPlan(p.N).Forward(want, x)

	plan, err := soi.NewPlan(p, soi.DefaultOptions())
	if err != nil {
		return nil, err
	}
	got := make([]complex128, p.N)
	bd := trace.NewBreakdown()
	localN := p.N / world
	err = mpi.Run(world, func(c mpi.Comm) error {
		if wrap != nil {
			c = wrap(c)
		}
		d, err := dist.NewSOIFromPlan(c, plan)
		if err != nil {
			return err
		}
		rankBD := trace.NewBreakdown()
		d.Breakdown = rankBD
		r := c.Rank()
		if err := d.Forward(got[r*localN:(r+1)*localN], x[r*localN:(r+1)*localN]); err != nil {
			return err
		}
		bd.Merge(rankBD)
		if f, ok := c.(interface{ Flush() error }); ok {
			return f.Flush()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &VerifyResult{
		Params:    p,
		World:     world,
		RelErr:    cvec.RelErrL2(got, want),
		Breakdown: bd,
	}, nil
}

// String renders a result row.
func (r Result) String() string {
	return fmt.Sprintf("%s on %s x%d: %.3f s, %.2f TFLOPS", r.Config.Algorithm, r.Config.Node.Name, r.Config.Nodes, r.VirtualTime, r.TFLOPS)
}
