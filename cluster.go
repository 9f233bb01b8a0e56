package soifft

import (
	"fmt"
	"sync"

	"soifft/internal/dist"
	"soifft/internal/mpi"
	"soifft/internal/soi"
	"soifft/internal/trace"
)

// Cluster executes the distributed SOI FFT across an in-process group of
// ranks — the paper's symmetric-mode MPI program with goroutines standing
// in for MPI processes. It exists both as a parallel execution engine and
// as a faithful, runnable rendition of the distributed algorithm: the same
// code path (ghost exchange, one pipelined all-to-all per segment group,
// local M'-point FFTs with fused demodulation) that a multi-machine
// deployment over the TCP transport uses.
type Cluster struct {
	ranks int
	cfg   Config

	// WrapComm, when non-nil, wraps each rank's communicator before the
	// distributed program runs — the seam for fault injection and transport
	// instrumentation. Wrapped comms exposing Flush (pending delayed
	// deliveries) are flushed after each rank finishes cleanly, so the
	// no-hang contract extends through the public Forward/Inverse API.
	WrapComm func(mpi.Comm) mpi.Comm

	mu    sync.Mutex
	plans map[int]*soi.Plan // cached single-address-space plans by length
}

// NewCluster creates an in-process cluster with the given rank count.
// Config.Segments must be a multiple of ranks (each rank owns
// Segments/ranks segments, the paper's "segments per MPI process").
func NewCluster(ranks int, cfg Config) (*Cluster, error) {
	if ranks < 1 {
		return nil, fmt.Errorf("soifft: invalid rank count %d", ranks)
	}
	if cfg.Segments == 0 {
		cfg.Segments = 8
	}
	if cfg.Segments%ranks != 0 {
		return nil, fmt.Errorf("soifft: segments %d not a multiple of ranks %d", cfg.Segments, ranks)
	}
	return &Cluster{ranks: ranks, cfg: cfg, plans: map[int]*soi.Plan{}}, nil
}

// planFor returns (building and caching on first use) the shared plan for
// length n. The window design dominates planning cost, so repeated
// transforms of one length reuse it across all ranks and calls.
func (c *Cluster) planFor(n int) (*soi.Plan, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.plans[n]; ok {
		return p, nil
	}
	params, opts, err := c.cfg.params(n)
	if err != nil {
		return nil, err
	}
	p, err := soi.NewPlan(params, c.adjustWorkers(opts))
	if err != nil {
		return nil, err
	}
	c.plans[n] = p
	return p, nil
}

// Ranks returns the number of ranks.
func (c *Cluster) Ranks() int { return c.ranks }

// RunStats reports what one distributed transform did.
type RunStats struct {
	// PhaseSeconds sums wall-clock seconds per phase over all ranks
	// (Convolution, Local FFT, Exposed MPI, etc.).
	PhaseSeconds map[string]float64
}

// Forward computes the in-order forward DFT of src (length N) into dst by
// running the distributed SOI program across the cluster's ranks. The
// input is block-distributed internally: rank r processes
// src[r*N/ranks : (r+1)*N/ranks].
func (c *Cluster) Forward(dst, src []complex128) (*RunStats, error) {
	return c.run(dst, src, false)
}

// Inverse computes the normalized inverse DFT of src into dst across the
// cluster: every rank runs dist.SOI.Inverse on its block.
func (c *Cluster) Inverse(dst, src []complex128) (*RunStats, error) {
	return c.run(dst, src, true)
}

// run executes one distributed transform, forward or inverse, and sums the
// ranks' phase breakdowns.
func (c *Cluster) run(dst, src []complex128, inverse bool) (*RunStats, error) {
	n := len(src)
	if len(dst) < n {
		return nil, fmt.Errorf("soifft: dst shorter than src")
	}
	plan, err := c.planFor(n)
	if err != nil {
		return nil, err
	}
	localN := n / c.ranks
	agg := trace.NewBreakdown()
	var mu sync.Mutex
	err = mpi.Run(c.ranks, func(comm mpi.Comm) error {
		if c.WrapComm != nil {
			comm = c.WrapComm(comm)
		}
		d, err := dist.NewSOIFromPlan(comm, plan)
		if err != nil {
			return err
		}
		bd := trace.NewBreakdown()
		d.Breakdown = bd
		transform := d.Forward
		if inverse {
			transform = d.Inverse
		}
		r := comm.Rank()
		if err := transform(dst[r*localN:(r+1)*localN], src[r*localN:(r+1)*localN]); err != nil {
			return err
		}
		mu.Lock()
		agg.Merge(bd)
		mu.Unlock()
		if f, ok := comm.(interface{ Flush() error }); ok {
			return f.Flush()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	stats := &RunStats{PhaseSeconds: map[string]float64{}}
	for _, ph := range agg.Phases() {
		stats.PhaseSeconds[ph] = agg.Get(ph).Seconds()
	}
	return stats, nil
}

// adjustWorkers divides the intra-node worker budget across ranks so an
// in-process cluster does not oversubscribe the machine.
func (c *Cluster) adjustWorkers(opts soi.Options) soi.Options {
	if opts.Workers == 0 && c.ranks > 1 {
		opts.Workers = 1
	}
	return opts
}
