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
// index is contiguous — so the stage kernels are reused unchanged, and with
// an even lane count every stride is even and the AVX2 kernels take two
// lanes per register (an odd lane count runs the Go stages).
type LaneBatch struct {
	n, lanes int
	stages   []stage
	work     sync.Pool
}

// NewLaneBatch builds a batch plan for `lanes` interleaved transforms of
// length n. n must be smooth (no prime factor above maxRadix);
// callers with rough sizes should use separate Plan transforms.
func NewLaneBatch(n, lanes int) (*LaneBatch, error) {
	if n < 1 || lanes < 1 {
		return nil, fmt.Errorf("fft: invalid LaneBatch %d x %d", n, lanes)
	}
	radices, smooth := factorize(n)
	if !smooth {
		return nil, fmt.Errorf("fft: LaneBatch length %d has a large prime factor", n)
	}
	lb := &LaneBatch{n: n, lanes: lanes}
	poolVectors(&lb.work, n*lanes)
	if n == 1 {
		return lb, nil
	}
	// Standard schedule, but the accumulated stride starts at `lanes`.
	lb.stages = buildStages(n, lanes, radices)
	return lb, nil
}

// Transform runs all lanes in place on x (length >= n*lanes). The six-step
// reads its columns in place through forwardFrom instead; Transform is the
// in-place form, kept for measuring the kernel on its own.
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

	// In place, the first pass may read x only when it writes w (an even
	// count); otherwise the input is staged in w, which it then reads.
	odd := len(lb.stages)%2 != 0
	src := x
	if dir == Inverse {
		// Conjugation identity; the final conjugate+scale happens below.
		if odd {
			src = w
		}
		for i, v := range x {
			src[i] = complex(real(v), -imag(v))
		}
	} else if odd {
		src = w
		copy(src, x)
	}
	runStages(lb.stages, x, src, w, lb.lanes)
	// Result is in x now.
	if dir == Inverse {
		inv := 1 / float64(lb.n)
		for i, v := range x {
			x[i] = complex(real(v)*inv, -imag(v)*inv)
		}
	}
}

// forwardFrom runs all lanes forward from src into dst (length n*lanes,
// lane-interleaved), reading element j of lane l at src[j*rowStride + l]:
// the lanes may be `lanes` adjacent columns of a row-major matrix with rows
// of rowStride elements, read in place. src must not overlap dst.
func (lb *LaneBatch) forwardFrom(dst, src []complex128, rowStride int) {
	total := lb.n * lb.lanes
	dst = dst[:total]
	if lb.n == 1 {
		copy(dst, src[:lb.lanes])
		return
	}
	wp := lb.work.Get().(*[]complex128)
	defer lb.work.Put(wp)
	runStages(lb.stages, dst, src, (*wp)[:total], rowStride)
}
