// Package dist implements the two distributed 1D FFTs the paper compares:
//
//   - SOI (Fig. 2): convolution-and-oversampling with a nearest-neighbour
//     ghost exchange, local S-point FFTs, ONE all-to-all, local M'-point
//     FFTs with fused projection/demodulation. With several segments per
//     rank the per-segment all-to-alls are pipelined against the local
//     FFTs, the communication/computation overlap of Section 6.1.
//
//   - Cooley-Tukey (Fig. 1): the conventional factorization with THREE
//     all-to-all exchanges (the mkl-fft stand-in baseline).
//
// Both are SPMD programs over an mpi.Comm, agnostic to the transport
// (in-process or TCP, with or without middleware). Both consume a block-
// distributed input (rank p owns x[p*N/P : (p+1)*N/P]) and produce the
// block-distributed in-order spectrum.
package dist

import (
	"errors"
	"fmt"
	"sync"

	"soifft/internal/mpi"
	"soifft/internal/par"
	"soifft/internal/soi"
	"soifft/internal/trace"
	"soifft/internal/window"
)

// SOI is a distributed Segment-of-Interest FFT plan bound to a communicator.
// One transform runs at a time on an SOI: its messages carry no call
// identity, so concurrent transforms over one communicator would mix.
type SOI struct {
	comm mpi.Comm
	plan *soi.Plan

	segPerRank    int // segments owned per rank (the paper's "segments per MPI process")
	chunksPerRank int
	interior      int // leading chunks whose input window ends inside the rank's block
	localN        int // input/output elements per rank = N/P
	rowsPerRank   int // M'/P rows of the permutation matrix per rank

	// ws keeps the working set between transforms (one, as one transform
	// runs at a time); a transform puts it back once nothing references it.
	ws par.FreeList[*workset]

	// Breakdown, when non-nil, accumulates per-phase wall time on this rank.
	// Segments that finish at once (soi.Plan.SegmentWorkers) each add their
	// own span to the local-FFT phase.
	Breakdown *trace.Breakdown
}

// workset is the working set of one transform; a steady-state transform
// allocates nothing in proportion to N. Per payload byte the exchange path
// is one pass and one crossing: convolved, transformed and stored by
// soi.Plan.ConvolveToSegments either straight into the rank's own slot of
// its segment vector (the rank's own lanes, which never travel) or into its
// send block of ut (every other lane), then sent, and received into the
// segment's slot of seg, where the M'-point FFT reads it.
type workset struct {
	// tail is the input the last chunks' windows read: the end of the
	// rank's block followed by the ghost elements of the successor ranks.
	// The interior chunks convolve straight from the caller's src.
	tail []complex128
	// ut holds the rank's rowsPerRank rows of the remote lanes of the
	// convolution output, lane-major: one run per lane that another rank
	// owns, the block sent to that rank.
	ut []complex128
	// seg holds the segPerRank segment vectors, M' elements each, that the
	// all-to-alls assemble.
	seg []complex128
	// lanes[f] is where lane f's rowsPerRank rows go: the rank's own slot
	// of one of its segment vectors, or a run of ut. bins is
	// ConvolveToSegments' view of lanes for one range of chunks.
	lanes, bins [][]complex128
	// send[g] and recv[g] are all-to-all g's blocks: views of lanes and of
	// segment g's slots in seg. A rank's own block is one slice in both, so
	// it is not copied.
	send, recv [][][]complex128
	// free holds FinishSegment's scratches, M' each, one per segment that
	// finishes at once (SegmentWorkers up to segPerRank); full between calls.
	free chan []complex128
	conj []complex128 // localN: Inverse's conjugated input, built on first use
}

// NewSOI builds the distributed plan. p.Segments is the total segment count
// and must be a multiple of the world size; every rank must own a whole
// number of convolution chunks. All ranks must pass identical parameters
// (the deterministic window design guarantees identical operators).
func NewSOI(c mpi.Comm, p window.Params, opts soi.Options) (*SOI, error) {
	plan, err := soi.NewPlan(p, opts)
	if err != nil {
		return nil, err
	}
	return NewSOIFromPlan(c, plan)
}

// NewSOIFromPlan binds an existing single-address-space plan to a
// communicator, sharing its (expensive) window design and FFT sub-plans.
// The plan must not be mutated; it is safe to share one plan across many
// ranks of an in-process world and across repeated transforms.
func NewSOIFromPlan(c mpi.Comm, plan *soi.Plan) (*SOI, error) {
	p := plan.Win.Params
	world := c.Size()
	if p.Segments%world != 0 {
		return nil, fmt.Errorf("dist: segments %d not a multiple of world size %d", p.Segments, world)
	}
	if p.Chunks()%world != 0 {
		return nil, fmt.Errorf("dist: chunk count %d not a multiple of world size %d", p.Chunks(), world)
	}
	if p.MPrime()%world != 0 {
		return nil, fmt.Errorf("dist: M'=%d not a multiple of world size %d", p.MPrime(), world)
	}
	d := &SOI{
		comm:          c,
		plan:          plan,
		segPerRank:    p.Segments / world,
		chunksPerRank: p.Chunks() / world,
		interior:      p.InteriorChunks(p.Chunks() / world),
		localN:        p.N / world,
		rowsPerRank:   p.MPrime() / world,
	}
	if ghost := p.GhostElems(); ghost >= p.N {
		return nil, fmt.Errorf("dist: ghost region %d spans the whole input N=%d; increase N or reduce B", ghost, p.N)
	}
	d.ws.New = d.newWorkset
	return d, nil
}

// newWorkset builds one transform's working set.
func (d *SOI) newWorkset() *workset {
	p := d.plan.Win.Params
	mp, world, rank := p.MPrime(), d.comm.Size(), d.comm.Rank()
	free := make(chan []complex128, min(d.plan.SegmentWorkers(), d.segPerRank))
	for range cap(free) {
		free <- make([]complex128, mp)
	}
	ws := &workset{
		tail:  make([]complex128, d.localN+p.GhostElems()-d.interior*p.DMu*p.Segments),
		ut:    make([]complex128, (p.Segments-d.segPerRank)*d.rowsPerRank),
		seg:   make([]complex128, d.segPerRank*mp),
		lanes: make([][]complex128, p.Segments),
		bins:  make([][]complex128, p.Segments),
		send:  make([][][]complex128, d.segPerRank),
		recv:  make([][][]complex128, d.segPerRank),
		free:  free,
	}
	// Lane f = q*segPerRank + g is row block q of segment g: rank q's.
	slot := func(g, q int) []complex128 {
		return ws.seg[g*mp+q*d.rowsPerRank : g*mp+(q+1)*d.rowsPerRank]
	}
	remote := 0
	for f := range ws.lanes {
		if q, g := f/d.segPerRank, f%d.segPerRank; q == rank {
			ws.lanes[f] = slot(g, q)
		} else {
			ws.lanes[f] = ws.ut[remote*d.rowsPerRank : (remote+1)*d.rowsPerRank]
			remote++
		}
	}
	for g := range ws.send {
		ws.send[g] = make([][]complex128, world)
		ws.recv[g] = make([][]complex128, world)
		for q := range world {
			ws.send[g][q] = ws.lanes[q*d.segPerRank+g]
			ws.recv[g][q] = slot(g, q)
		}
	}
	return ws
}

// Params returns the SOI parameters.
func (d *SOI) Params() window.Params { return d.plan.Win.Params }

// LocalN returns the per-rank input/output length N/P.
func (d *SOI) LocalN() int { return d.localN }

// EstimatedError returns the designed alias bound.
func (d *SOI) EstimatedError() float64 { return d.plan.EstimatedError() }

// Tags used by the SOI exchanges (below the collective-reserved space).
const (
	tagGhost = 100 + iota
)

// Forward computes this rank's block of the in-order spectrum: src is the
// rank's N/P input elements, dst receives its N/P output elements. dst
// must not alias src: the pipelined finish writes dst while ghost rows of
// src may still be read.
func (d *SOI) Forward(dst, src []complex128) error {
	if len(src) < d.localN || len(dst) < d.localN {
		return &ShapeError{What: "buffers too short", Got: min(len(src), len(dst)), Want: d.localN}
	}
	ws := d.ws.Get()
	defer d.ws.Put(ws)
	return d.forward(dst[:d.localN], src[:d.localN], ws)
}

// Inverse computes this rank's block of the normalized inverse DFT via the
// conjugation identity IFFT(x) = conj(SOI(conj(x)))/N. The conjugations are
// purely rank-local, so the distributed structure is identical to Forward.
// Like Forward, dst must not alias src.
func (d *SOI) Inverse(dst, src []complex128) error {
	if len(src) < d.localN || len(dst) < d.localN {
		return &ShapeError{What: "buffers too short", Got: min(len(src), len(dst)), Want: d.localN}
	}
	ws := d.ws.Get()
	defer d.ws.Put(ws)
	if ws.conj == nil {
		ws.conj = make([]complex128, d.localN)
	}
	for i, v := range src[:d.localN] {
		ws.conj[i] = complex(real(v), -imag(v))
	}
	if err := d.forward(dst[:d.localN], ws.conj, ws); err != nil {
		return err
	}
	inv := 1 / float64(d.plan.Win.N)
	for i, v := range dst[:d.localN] {
		dst[i] = complex(real(v)*inv, -imag(v)*inv)
	}
	return nil
}

// forward transforms the rank's block src into dst through ws. It returns
// only once nothing it started references ws.
func (d *SOI) forward(dst, src []complex128, ws *workset) error {
	p := d.plan.Win.Params

	// Phase 1, once the all-to-alls' receives are posted: nearest-neighbour
	// ghost exchange (latency-bound short messages, Section 5.1), then
	// convolution + S-point FFTs + permutation straight into the send
	// blocks and the rank's own segment slots. The interior chunks read src
	// in place; the last few, whose windows cross the end of the block, read
	// its tail followed by the ghost elements.
	convolve := func() error {
		stopEtc := timer(d.Breakdown, trace.PhaseEtc)
		err := d.exchangeGhost(ws.tail, src)
		stopEtc()
		if err != nil {
			return err
		}
		stopConv := timer(d.Breakdown, trace.PhaseConv)
		defer stopConv()
		c0 := d.comm.Rank() * d.chunksPerRank
		split := c0 + d.interior
		copy(ws.bins, ws.lanes)
		d.plan.ConvolveToSegments(ws.bins, src, c0, split)
		for f, lane := range ws.lanes {
			ws.bins[f] = lane[d.interior*p.NMu:]
		}
		d.plan.ConvolveToSegments(ws.bins, ws.tail, split, c0+d.chunksPerRank)
		return nil
	}

	// Phase 2+3: per-segment-group all-to-alls, pipelined with the local
	// M'-point FFT + demodulation of the previously received group.
	return d.exchangeAndFinish(dst, ws, convolve)
}

// exchangeGhost fills tail with the end of src that the non-interior chunks
// read, followed by the (B-DMu)*S ghost elements after the rank's block
// (circularly), which may span several successor ranks. Rank r
// simultaneously serves the mirrored prefixes to its predecessors.
func (d *SOI) exchangeGhost(tail, src []complex128) error {
	p := d.plan.Win.Params
	own := copy(tail, src[d.interior*p.DMu*p.Segments:])
	ghost := tail[own:]
	world := d.comm.Size()
	r := d.comm.Rank()
	for j := 1; len(ghost) > 0; j++ {
		if j >= world+1 {
			return fmt.Errorf("dist: ghost exchange did not converge")
		}
		// Length of the piece exchanged with the j-th neighbour.
		l := min(len(ghost), d.localN)
		to := ((r-j)%world + world) % world // predecessor needing my prefix
		from := (r + j) % world             // successor providing my suffix
		err := mpi.SendRecvInto(d.comm, to, src[:l], from, tagGhost+j, ghost[:l])
		if err != nil {
			return shapeError(err, fmt.Sprintf("ghost piece %d elems", j))
		}
		ghost = ghost[l:]
	}
	return nil
}

// exchangeAndFinish runs segPerRank all-to-alls (one per local segment
// index g, carrying lane q*segPerRank+g to each rank q) that assemble
// segment vector t_g in its slot of ws.seg, and finishes each with the
// M'-point FFT + projection + demodulation. Every exchange's receives are
// posted first (mpi.AllToAllsInto), then convolve fills the send blocks:
// the slots the receives fill are disjoint from every send block, from the
// rank's own slots and from the segments already finishing. The exchanges
// run one at a time on the calling goroutine; each finish runs on its own
// goroutine with one of the cap(ws.free) scratches (the plan's
// SegmentWorkers), so that many segments finish at once. Segment g starts
// to finish as soon as it has arrived, while exchange g+1 proceeds. Every
// finish is joined before returning, on every path.
func (d *SOI) exchangeAndFinish(dst []complex128, ws *workset, convolve func() error) error {
	p := d.plan.Win.Params
	mp := p.MPrime()
	m := p.M()

	var finishing sync.WaitGroup
	defer finishing.Wait()
	stop := func() {}
	fill := func() error {
		err := convolve()
		stop = timer(d.Breakdown, trace.PhaseExposedMPI)
		return err
	}
	err := mpi.AllToAllsInto(d.comm, ws.send, ws.recv, fill, func(g int) {
		stop()
		y := <-ws.free
		finishing.Add(1)
		go func() {
			defer finishing.Done()
			stop := timer(d.Breakdown, trace.PhaseLocalFFT)
			d.plan.FinishSegment(dst[g*m:(g+1)*m], ws.seg[g*mp:(g+1)*mp], y)
			stop()
			ws.free <- y
		}()
		stop = timer(d.Breakdown, trace.PhaseExposedMPI)
	})
	stop()
	return shapeError(err, "all-to-all block rows")
}

// shapeError turns a peer's mis-sized payload into the *ShapeError the
// distributed protocol reports for rank disagreement on the geometry; any
// other error passes through.
func shapeError(err error, what string) error {
	var te *mpi.TransportError
	var se *mpi.SizeError
	if errors.As(err, &te) && errors.As(err, &se) {
		return &ShapeError{What: fmt.Sprintf("%s from rank %d", what, te.Peer), Got: se.Got, Want: se.Want}
	}
	return err
}

func timer(b *trace.Breakdown, phase string) func() {
	if b == nil {
		return func() {}
	}
	return b.Timer(phase)
}
