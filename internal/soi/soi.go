// Package soi implements the Segment-of-Interest FFT factorization
// (Equation 1 of the paper):
//
//	y = I_P (x) ( W^-1 Proj F_M' ) Perm(P,N') ( I_M' (x) F_P ) W x
//
// as a reusable plan over a single address space. The distributed driver in
// internal/dist composes the same per-stage methods with message passing;
// everything numerical lives here.
//
// Pipeline stages (right to left in the equation):
//
//  1. Convolve-and-oversample: u = W*x, via internal/conv (needs
//     (B-DMu)*Segments ghost elements past the end, circularly).
//  2. Small FFTs: S-point transforms on each contiguous block of u
//     (I_M' (x) F_P with S = Segments playing the algebraic P).
//  3. Stride-S permutation: gather lane f of u into segment vector t_f —
//     the single all-to-all of the algorithm.
//     Stages 1-3 run as one pass over cache-sized tiles of u
//     (ConvolveToSegments); u is never materialized. A tile is stored
//     lane-major, so the S-point transforms run over its columns and write
//     each bin's run straight into its segment vector: stage 3 is where
//     stage 2 stores, not a pass.
//  4. Large local FFT: M'-point transform of t_f. A segment vector that
//     fits in cache (plainSegmentBytes) runs on the plain Stockham fft.Plan,
//     one segment per worker; a larger one on the paper's 6-step (Section
//     5.2), whose segments live in DRAM, its passes split across the
//     workers.
//  5. Project to the top M bins and demodulate by W^-1, fused into the
//     final pass of either FFT (fft.Plan.ForwardDemodulate when that pass is
//     radix 2, the 6-step's own fusion), or one pass after the plain plan.
//
// Segment f of the output is y[f*M : (f+1)*M] — the transform is in-order.
package soi

import (
	"fmt"
	"sync"

	"soifft/internal/conv"
	"soifft/internal/fft"
	"soifft/internal/par"
	"soifft/internal/window"
)

// Options tune the plan; zero values select the optimized defaults.
type Options struct {
	Workers     int          // intra-node workers; <= 0 selects GOMAXPROCS
	ConvVariant conv.Variant // convolution strategy (default Buffered)
	// FFTVariant is the stage-4 strategy. SixStepOpt, the zero value, runs
	// segments of at most plainSegmentBytes on the plain fft.Plan and larger
	// ones on the optimized six-step; SixStepNaive always runs the naive
	// six-step (Fig. 10's first step).
	FFTVariant fft.Variant
}

// DefaultOptions returns the optimized configuration.
func DefaultOptions() Options {
	return Options{ConvVariant: conv.Buffered, FFTVariant: fft.SixStepOpt}
}

// Plan is a reusable SOI transform plan. It is safe for concurrent use.
type Plan struct {
	Win  *window.Filter
	opts Options

	fp *fft.Plan // Segments-point FFT (stage 2)
	// Stage 4's M'-point FFT: fm, the plain plan, for a cache-sized segment,
	// else six, the six-step with stage 5's demodulation fused (plainSegment).
	fm  *fft.Plan
	six *fft.SixStep

	scratch sync.Pool // *scratch: Forward's and Inverse's working set
	tiles   sync.Pool // *tile: one ConvolveToSegments worker's buffers
	segs    sync.Pool // *[]complex128: one stage-4 worker's M' scratch
}

// scratch is the working set of one transform. A transform takes one from
// the plan's pool and returns it, so steady-state calls allocate nothing
// and concurrent calls never share buffers.
type scratch struct {
	// tail is the input the non-interior chunks read: the end of src
	// followed by the ghost elements, src's start again. The interior chunks
	// convolve straight from the caller's src.
	tail []complex128
	t    []complex128 // N': the segment vectors t_f, M' each
	conj []complex128 // N: Inverse's conjugated input, built on first use
}

// tile is what one worker of ConvolveToSegments computes in: the lane-major
// outputs of conv.TileChunks chunks, conv.TileStride apart, and the
// convolution's lane staging.
type tile struct{ out, stage []complex128 }

// NewPlan designs the window and builds the FFT sub-plans for p.
func NewPlan(p window.Params, opts Options) (*Plan, error) {
	win, err := window.Design(p)
	if err != nil {
		return nil, err
	}
	return NewPlanFromFilter(win, opts)
}

// NewPlanFromFilter builds a plan around an existing (e.g. shared)
// window design, skipping the design search.
func NewPlanFromFilter(win *window.Filter, opts Options) (*Plan, error) {
	pl := &Plan{Win: win, opts: opts}
	pl.scratch.New = func() any {
		own := win.N - win.InteriorChunks(win.Chunks())*win.DMu*win.Segments
		return &scratch{
			tail: make([]complex128, own+win.GhostElems()),
			t:    make([]complex128, win.MPrime()*win.Segments), // N' = mu*N
		}
	}
	pl.segs.New = func() any {
		y := make([]complex128, win.MPrime())
		return &y
	}
	pl.tiles.New = func() any {
		return &tile{
			out:   make([]complex128, win.Segments*conv.TileStride(win)),
			stage: make([]complex128, conv.StageLen(win)),
		}
	}
	var err error
	if pl.fp, err = fft.NewPlan(win.Segments); err != nil {
		return nil, err
	}
	mp := win.MPrime()
	if plainSegment(opts.FFTVariant, mp) {
		if pl.fm, err = fft.NewPlan(mp); err != nil {
			return nil, err
		}
		return pl, nil
	}
	// M' = NMu*Segments*k with NMu, Segments >= 2 is composite, so the
	// six-step's 2D split exists for every validated window.Params.
	if pl.six, err = fft.NewSixStep(mp, opts.FFTVariant, opts.Workers); err != nil {
		return nil, err
	}
	// Fused W^-1: multiply during the final pass of the 6-step FFT. Bins >=
	// M are discarded by the projection; zeroing them keeps the fused pass
	// branch-free.
	demodFull := make([]complex128, mp)
	copy(demodFull, win.Demod)
	pl.six.SetDemod(demodFull)
	return pl, nil
}

// plainSegmentBytes is the largest segment vector, M' complex128 values,
// whose stage-4 FFT runs on the plain Stockham fft.Plan. The paper picks the
// six-step because its segments live in DRAM (Section 5.2, Fig. 4); below
// this size they live in cache, where the plain plan's log8(M') passes beat
// the six-step's two tiled passes. The value comes from a one-worker sweep,
// fft.BenchmarkSegmentEngines on a 2-vCPU AVX-512 Xeon (EXPERIMENTS.md, "The
// segment FFT on the plain plan"), per segment: the plain plan was faster up
// to 2^20 points (16 MiB; 0.90 against 1.23 ms at 2^16, 23 against 30 ms at
// 2^20) and no faster at 7*2^18 (28 MiB) and 2^21 (32 MiB). The same sweep
// with two workers (the plain plan one segment per worker, the six-step its
// passes split across both) found the plain plan ahead at every size up to
// 2^22 (64 MiB), so the crossover lies above the constant, not at it. No
// benchmark workload runs a segment above it: that side is unverified end
// to end, and the constant waits for a DRAM-resident workload (ROADMAP item
// 5(a)) before it moves.
const plainSegmentBytes = 16 << 20

// plainSegment reports whether stage 4 runs a segment of mp points on the
// plain plan under variant v; otherwise it runs the six-step.
func plainSegment(v fft.Variant, mp int) bool {
	return v == fft.SixStepOpt && mp*16 <= plainSegmentBytes
}

// Params returns the plan's SOI parameters.
func (pl *Plan) Params() window.Params { return pl.Win.Params }

// EstimatedError returns the designed alias bound — the expected relative
// accuracy of the transform.
func (pl *Plan) EstimatedError() float64 { return pl.Win.AliasBound() }

// Forward computes the in-order forward DFT of src (length N) into dst.
// dst must not alias src.
func (pl *Plan) Forward(dst, src []complex128) error {
	n := pl.Win.N
	if len(src) < n || len(dst) < n {
		return fmt.Errorf("soi: buffers too short for N=%d", n)
	}
	sc := pl.scratch.Get().(*scratch)
	defer pl.scratch.Put(sc)
	pl.forward(dst[:n], src[:n], sc)
	return nil
}

// Inverse computes the normalized inverse DFT via the conjugation identity
// IFFT(x) = conj(SOI(conj(x)))/N, inheriting SOI's accuracy.
func (pl *Plan) Inverse(dst, src []complex128) error {
	n := pl.Win.N
	if len(src) < n || len(dst) < n {
		return fmt.Errorf("soi: buffers too short for N=%d", n)
	}
	sc := pl.scratch.Get().(*scratch)
	defer pl.scratch.Put(sc)
	if sc.conj == nil {
		sc.conj = make([]complex128, n)
	}
	for i, v := range src[:n] {
		sc.conj[i] = complex(real(v), -imag(v))
	}
	pl.forward(dst[:n], sc.conj, sc)
	inv := 1 / float64(n)
	for i, v := range dst[:n] {
		dst[i] = complex(real(v)*inv, -imag(v)*inv)
	}
	return nil
}

// forward transforms src (length N) into dst through sc.
func (pl *Plan) forward(dst, src []complex128, sc *scratch) {
	p := pl.Win.Params

	// Stages 1-3. The interior chunks read src in place; the last few, whose
	// windows run past its end, read its tail followed by the circular ghost.
	interior := p.InteriorChunks(p.Chunks())
	own := copy(sc.tail, src[interior*p.DMu*p.Segments:])
	for i := range sc.tail[own:] {
		sc.tail[own+i] = src[i%p.N]
	}
	pl.ConvolveToSegments(sc.t, p.MPrime(), src, 0, interior)
	pl.ConvolveToSegments(sc.t[interior*p.NMu:], p.MPrime(), sc.tail, interior, p.Chunks())

	// Stage 4+5 per segment, split across SegmentWorkers.
	par.For(pl.SegmentWorkers(), p.Segments, func(lo, hi int) {
		y := pl.segs.Get().(*[]complex128)
		defer pl.segs.Put(y)
		for f := lo; f < hi; f++ {
			pl.FinishSegment(dst[f*p.M():(f+1)*p.M()], sc.t[f*p.MPrime():(f+1)*p.MPrime()], *y)
		}
	})
}

// SegmentWorkers returns how many FinishSegment calls should run at once:
// the plan's workers on the plain plan, which transforms a segment on one
// worker, and 1 on the six-step, which splits each segment's passes across
// the workers itself.
func (pl *Plan) SegmentWorkers() int {
	if pl.six != nil {
		return 1
	}
	if pl.opts.Workers <= 0 {
		return par.DefaultWorkers()
	}
	return pl.opts.Workers
}

// ConvolveToSegments runs stages 1 to 3 for chunks [c0, c1) in one pass over
// tiles of the convolution output: each tile of rows is convolved from x
// (whose origin is global input index c0*DMu*Segments, length >=
// conv.InputLen) into a lane-major tile, and while it is cache-resident the
// Segments-point FFT over the tile's columns stores bin f of row r of the
// range at t[f*ld+r], element r of segment f's vector. With ld = M' t holds
// the whole segment vectors; a distributed rank passes its share of the rows
// as ld, and t's runs of ld are the blocks of its all-to-all. Tiles share no
// state and are split across the plan's workers.
func (pl *Plan) ConvolveToSegments(t []complex128, ld int, x []complex128, c0, c1 int) {
	p := pl.Win.Params
	s, nmu := p.Segments, p.NMu
	tc, ldu := conv.TileChunks(pl.Win), conv.TileStride(pl.Win)
	ntiles := (c1 - c0 + tc - 1) / tc
	par.For(pl.opts.Workers, ntiles, func(lo, hi int) {
		tl := pl.tiles.Get().(*tile)
		defer pl.tiles.Put(tl)
		for i := lo; i < hi; i++ {
			c := i * tc // first chunk of the tile, relative to c0
			n := min(tc, c1-c0-c)
			rows := n * nmu
			conv.ApplyTile(pl.opts.ConvVariant, pl.Win, tl.out, ldu, x[c*p.DMu*s:], c0+c, c0+c+n, tl.stage)
			pl.fp.ForwardCols(t[c*nmu:], ld, tl.out, ldu, rows)
		}
	})
}

// FinishSegment runs stages 4 and 5 for one segment: the M'-point FFT of
// tf, the demodulation by W^-1 and the projection to the top M bins,
// writing the M in-order spectrum values of the segment into dst. The plain
// plan stores its last pass times W^-1 into dst, or demodulates in one pass
// after it (fft.Plan.ForwardDemodulate); the six-step fuses the
// demodulation into its last pass and dst is a copy. scratch must have
// length >= M'. tf's contents are not kept: the plain plan transforms
// between tf and scratch.
func (pl *Plan) FinishSegment(dst, tf, scratch []complex128) {
	m := pl.Win.M()
	if pl.fm != nil {
		pl.fm.ForwardDemodulate(dst[:m], tf, scratch, pl.Win.Demod)
		return
	}
	pl.six.Forward(scratch, tf)
	copy(dst[:m], scratch[:m])
}
