package perfmodel

import "math"

// Design-space studies the paper discusses qualitatively; the model makes
// them quantitative.

// EstimateHybrid models the hybrid mode of Section 7: Xeon host and Xeon
// Phi working together on the node-local compute (load-balanced via
// segments, e.g. "1 segment per socket of Xeon E5-2680 and 6 segments per
// Xeon Phi"), with the interconnect unchanged. The paper declines to
// evaluate it because "only less than 10% speedups are expected from the
// additional compute due to the bandwidth-limited nature of 1D-fft"; this
// function reproduces that bound.
func (c Config) EstimateHybrid(opt Options) Estimate {
	// Combined compute capacity scales the compute phases only.
	combined := c.Phi.PeakGFlops + c.Xeon.PeakGFlops
	scale := c.Phi.PeakGFlops / combined

	e := c.Estimate(SOI, XeonPhi, opt)
	e.LocalFFT *= scale
	e.Conv *= scale
	// Memory-bound "etc." scales with the combined STREAM bandwidth.
	e.Etc *= c.Phi.StreamGBps / (c.Phi.StreamGBps + c.Xeon.StreamGBps)
	// Re-derive the overlap with the faster compute.
	e.ExposedMPI = exposedMPI(e.MPI, e.LocalFFT, opt.segments(), opt.Overlap)
	e.Total = e.LocalFFT + e.Conv + e.ExposedMPI + e.Etc
	return e
}

// SegmentsRow is one point of the segments-per-process study.
type SegmentsRow struct {
	Segments   int
	MPI        float64 // raw exchange time (short packets hurt here)
	ExposedMPI float64 // after overlap (few segments hurt here)
	Total      float64
}

// SegmentsStudy sweeps the segments-per-process parameter at a given scale,
// quantifying the Section 6.1 trade-off: more segments overlap more
// communication but shorten the packets. The paper resolves it empirically
// as 8 segments for <= 128 nodes and 2 beyond; SegmentsFor encodes that
// policy and TestSegmentPolicyJustified checks the model agrees.
func (c Config) SegmentsStudy(p Platform, nodes int, segments []int) []SegmentsRow {
	rows := make([]SegmentsRow, 0, len(segments))
	for _, s := range segments {
		e := c.Estimate(SOI, p, Options{
			Nodes: nodes, PerNode: PerNodeElems, Segments: s, Overlap: true,
		})
		rows = append(rows, SegmentsRow{Segments: s, MPI: e.MPI, ExposedMPI: e.ExposedMPI, Total: e.Total})
	}
	return rows
}

// AccuracyRow is one point of the (mu, B) accuracy/cost study.
type AccuracyRow struct {
	NMu, DMu  int
	B         int
	ConvFlops float64 // relative to the local FFT flops (the paper: ~5x at B=72, mu=8/7)
}

// AccuracyCostStudy tabulates the extra arithmetic the convolution costs
// for each oversampling/width choice: 8*B*mu*N flops against 5*N*log2(N).
// (Accuracy itself is measured, not modeled — see window.Design and
// EXPERIMENTS.md.)
func AccuracyCostStudy(nTotal float64, rows []AccuracyRow) []AccuracyRow {
	out := make([]AccuracyRow, len(rows))
	for i, r := range rows {
		mu := float64(r.NMu) / float64(r.DMu)
		fftFlops := 5 * nTotal * math.Log2(nTotal)
		r.ConvFlops = 8 * float64(r.B) * mu * nTotal / fftFlops
		out[i] = r
	}
	return out
}
