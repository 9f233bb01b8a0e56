package fft

import (
	"fmt"

	"soifft/internal/par"
)

// Batch executes many independent transforms of the same length, the
// "I_m (x) F_p" building block of Equation 1: m instances of F_p run in
// parallel, each on a contiguous slice. A Batch is safe for concurrent use.
type Batch struct {
	plan    *Plan
	workers int
}

// NewBatch creates a batch executor for transforms of length n using the
// given intra-node worker count (<= 0 selects GOMAXPROCS).
func NewBatch(n, workers int) (*Batch, error) {
	p, err := NewPlan(n)
	if err != nil {
		return nil, err
	}
	return &Batch{plan: p, workers: workers}, nil
}

// Plan returns the underlying single-transform plan.
func (b *Batch) Plan() *Plan { return b.plan }

// Transform runs count transforms. Transform i reads src[i*dist : i*dist+n]
// and writes dst[i*dist : i*dist+n]; dist must be >= n. dst may alias src.
// The symbolic form assumes count >= 1 (count <= 0 is a no-op).
func (b *Batch) Transform(dst, src []complex128, count, dist int, dir Direction) {
	n := b.plan.n
	if dist < n {
		panic(fmt.Sprintf("fft: Batch distance %d < transform length %d", dist, n))
	}
	if count <= 0 {
		return
	}
	if need := (count-1)*dist + n; len(dst) < need || len(src) < need {
		panic(fmt.Sprintf("fft: Batch buffers too short for count=%d dist=%d n=%d", count, dist, n))
	}
	par.For(b.workers, count, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			off := i * dist
			b.plan.Transform(dst[off:off+n], src[off:off+n], dir)
		}
	})
}
