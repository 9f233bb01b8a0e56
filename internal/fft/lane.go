package fft

import (
	"fmt"
	"sync"
)

// LaneBatch performs `lanes` independent length-n transforms stored
// lane-interleaved: element j of transform l lives at x[j*lanes + l].
//
// This is the paper's outer-loop vectorization ("Step 2 performs ffts in
// strides of P. We vectorize this step by performing vector-width (i.e., 8)
// independent ffts", Section 5.2.4): every butterfly's innermost loop walks
// the lanes contiguously, so the compiler sees long unit-stride runs of
// identical arithmetic. The implementation insight is that the
// lane-interleaved batch is *exactly* the Stockham schedule with the
// initial stride set to `lanes` instead of 1 — the combined (q, lane) inner
// index is contiguous — so the scalar stage kernels are reused unchanged.
type LaneBatch struct {
	n, lanes int
	stages   []stage
	work     sync.Pool
}

// NewLaneBatch builds a batch plan for `lanes` interleaved transforms of
// length n. n must be smooth (no prime factor above maxGenericRadix);
// callers with rough sizes should use separate Plan transforms.
func NewLaneBatch(n, lanes int) (*LaneBatch, error) {
	if n < 1 || lanes < 1 {
		return nil, fmt.Errorf("fft: invalid LaneBatch %d x %d", n, lanes)
	}
	// The accumulated stride starts at `lanes`, so the alias-avoidance
	// schedule must see it too: a lane batch reaches page-aliasing strides
	// `lanes` times sooner than a scalar plan of the same length.
	radices, smooth := factorize(n, lanes)
	if !smooth {
		return nil, fmt.Errorf("fft: LaneBatch length %d has a large prime factor", n)
	}
	lb := &LaneBatch{n: n, lanes: lanes}
	poolVectors(&lb.work, n*lanes)
	if n == 1 {
		return lb, nil
	}
	// Standard schedule, but the accumulated stride starts at `lanes`.
	lb.stages = buildStages(n, radices)
	for i := range lb.stages {
		lb.stages[i].s *= lanes
	}
	return lb, nil
}

// N returns the per-transform length; Lanes the batch width.
func (lb *LaneBatch) N() int     { return lb.n }
func (lb *LaneBatch) Lanes() int { return lb.lanes }

// Transform runs all lanes in place on x (length >= n*lanes).
func (lb *LaneBatch) Transform(x []complex128, dir Direction) {
	total := lb.n * lb.lanes
	if len(x) < total {
		panic(fmt.Sprintf("fft: LaneBatch buffer %d < %d", len(x), total))
	}
	x = x[:total]
	if lb.n == 1 {
		return // length-1 transforms are the identity in both directions
	}
	wp := lb.work.Get().(*[]complex128)
	defer lb.work.Put(wp)
	w := (*wp)[:total]

	a, b := x, w
	if len(lb.stages)%2 != 0 {
		a, b = w, x
	}
	if dir == Forward {
		if &a[0] != &x[0] {
			copy(a, x)
		}
	} else {
		// Conjugation identity; the final conjugate+scale happens below.
		for i, v := range x {
			a[i] = complex(real(v), -imag(v))
		}
	}
	for i := range lb.stages {
		runStage(&lb.stages[i], b, a)
		a, b = b, a
	}
	// Result is in x now.
	if dir == Inverse {
		inv := 1 / float64(lb.n)
		for i, v := range x {
			x[i] = complex(real(v)*inv, -imag(v)*inv)
		}
	}
}

// Forward runs all lanes forward, in place.
func (lb *LaneBatch) Forward(x []complex128) { lb.Transform(x, Forward) }

// Inverse runs all lanes inverse (1/n scaled), in place.
func (lb *LaneBatch) Inverse(x []complex128) { lb.Transform(x, Inverse) }
