package fft

import (
	"fmt"

	"soifft/internal/cvec"
)

// Split-plane execution for LaneBatch. The lane-interleaved layout is even
// friendlier to SoA than the single-transform case: the combined (q, lane)
// inner index walks each plane contiguously for n*lanes elements per
// butterfly leg, so the stage kernels see long unit-stride float64 runs
// with no complex packing. SixStepOpt runs its full column tiles on this
// path; the serving executor stays on Transform, which is faster once its
// gather and scatter are counted (DESIGN.md §11).

// ensureSoA lazily splits the stage twiddles and arms the plane pool.
func (lb *LaneBatch) ensureSoA() {
	lb.soa.once.Do(func() {
		ensureSoAStages(lb.stages)
		total := lb.n * lb.lanes
		lb.soa.work.New = func() any {
			s := cvec.NewSoA(total)
			return &s
		}
	})
}

// TransformSoA runs all lanes in place on the plane pair x (length >=
// n*lanes), lane-interleaved exactly like Transform.
func (lb *LaneBatch) TransformSoA(x cvec.SoA, dir Direction) {
	total := lb.n * lb.lanes
	if x.Len() < total {
		panic(fmt.Sprintf("fft: LaneBatch SoA buffer %d < %d", x.Len(), total))
	}
	x = x.Slice(0, total)
	if lb.n == 1 {
		return // length-1 transforms are the identity in both directions
	}
	lb.ensureSoA()
	wp := lb.soa.work.Get().(*cvec.SoA)
	defer lb.soa.work.Put(wp)
	w := (*wp).Slice(0, total)

	a, b := x, w
	if len(lb.stages)%2 != 0 {
		a, b = w, x
	}
	if dir == Forward {
		if &a.Re[0] != &x.Re[0] {
			x.CopyTo(a)
		}
	} else {
		// Conjugation identity; the final conjugate+scale happens below.
		copy(a.Re, x.Re)
		for i, v := range x.Im {
			a.Im[i] = -v
		}
	}
	for i := range lb.stages {
		runStageSoA(&lb.stages[i], b, a)
		a, b = b, a
	}
	// Result is in x now.
	if dir == Inverse {
		inv := 1 / float64(lb.n)
		for i := range x.Re {
			x.Re[i] *= inv
		}
		for i := range x.Im {
			x.Im[i] = -x.Im[i] * inv
		}
	}
}

// ForwardSoA runs all lanes forward on planes, in place.
func (lb *LaneBatch) ForwardSoA(x cvec.SoA) { lb.TransformSoA(x, Forward) }

// InverseSoA runs all lanes inverse (1/n scaled) on planes, in place.
func (lb *LaneBatch) InverseSoA(x cvec.SoA) { lb.TransformSoA(x, Inverse) }
