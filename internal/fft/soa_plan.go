package fft

import (
	"fmt"
	"sync"

	"soifft/internal/cvec"
)

// Split-plane (SoA) execution path for Plan. The layout follows the call:
// Transform runs the AoS kernels, TransformSoA runs the SoA kernels over
// cvec.SoA planes — neither converts behind the caller's back. The one
// exception is the Bluestein fallback for rough lengths, which is AoS-only;
// TransformSoA documents that case as a pooled conversion round trip.

// soaState holds the lazily-built SoA resources of a Plan: split twiddle
// planes on every stage plus a scratch-plane pool for the ping-pong buffer.
type soaState struct {
	once sync.Once
	work sync.Pool
}

func (p *Plan) ensureSoA() {
	p.soa.once.Do(func() {
		ensureSoAStages(p.stages)
		n := p.n
		p.soa.work.New = func() any {
			s := cvec.NewSoA(n)
			return &s
		}
	})
}

// ensureSoAStages splits each stage's twiddle tables into float64 planes.
// Called once per plan (under the owner's sync.Once) before the SoA kernel
// first runs; AoS-only plans never pay the extra memory.
func ensureSoAStages(stages []stage) {
	for i := range stages {
		st := &stages[i]
		st.twRe, st.twIm = splitPlanes(st.tw)
		if st.wr != nil {
			st.wrRe, st.wrIm = splitPlanes(st.wr)
		}
	}
}

// splitPlanes converts a complex table into freshly allocated planes.
func splitPlanes(t []complex128) (re, im []float64) {
	s := cvec.FromComplex(t)
	return s.Re, s.Im
}

// TransformSoA computes the DFT of src into dst on split planes. Both
// vectors must have length >= p.N(); dst may alias src plane-wise. Forward
// is unnormalized; Inverse applies the 1/n scaling — the same contract as
// Transform. Smooth lengths run entirely on planes; rough (Bluestein)
// lengths convert through a pooled AoS scratch pair, which costs two extra
// sweeps and is the documented fallback, not a fast path.
func (p *Plan) TransformSoA(dst, src cvec.SoA, dir Direction) {
	n := p.n
	if dst.Len() < n || src.Len() < n {
		panic(fmt.Sprintf("fft: TransformSoA buffers too short: dst=%d src=%d n=%d", dst.Len(), src.Len(), n))
	}
	dst, src = dst.Slice(0, n), src.Slice(0, n)
	switch {
	case n == 1:
		dst.Re[0], dst.Im[0] = src.Re[0], src.Im[0]
	case n == 2:
		ar, ai := src.Re[0], src.Im[0]
		br, bi := src.Re[1], src.Im[1]
		s := 1.0
		if dir == Inverse {
			s = 0.5
		}
		dst.Re[0], dst.Im[0] = (ar+br)*s, (ai+bi)*s
		dst.Re[1], dst.Im[1] = (ar-br)*s, (ai-bi)*s
	case n == 4 || n == 8 || n == 16:
		if dir == Forward {
			codeletForwardSoA(dst.Re, dst.Im, src.Re, src.Im, n)
			return
		}
		// Inverse via the conjugation identity, as in Transform.
		var tr, ti [16]float64
		for i := 0; i < n; i++ {
			tr[i] = src.Re[i]
			ti[i] = -src.Im[i]
		}
		codeletForwardSoA(dst.Re, dst.Im, tr[:n], ti[:n], n)
		inv := 1 / float64(n)
		for i := 0; i < n; i++ {
			dst.Re[i] *= inv
			dst.Im[i] = -dst.Im[i] * inv
		}
	case p.blue != nil:
		// Bluestein is AoS-only: round trip through pooled complex scratch.
		ap := p.work.Get().(*[]complex128)
		bp := p.work.Get().(*[]complex128)
		a, b := (*ap)[:n], (*bp)[:n]
		src.CopyToComplex(a)
		p.blue.transform(b, a, dir)
		cvec.FromComplexInto(dst, b)
		p.work.Put(bp)
		p.work.Put(ap)
	default:
		p.stockhamSoA(dst, src, dir)
	}
}

// ForwardSoA computes the unnormalized forward DFT on planes.
func (p *Plan) ForwardSoA(dst, src cvec.SoA) { p.TransformSoA(dst, src, Forward) }

// InverseSoA computes the normalized (1/n) inverse DFT on planes.
func (p *Plan) InverseSoA(dst, src cvec.SoA) { p.TransformSoA(dst, src, Inverse) }

// stockhamSoA is stockham with the ping-pong pair on planes: same parity
// trick (the last pass lands in dst with no final copy), same conjugation
// identity for the inverse.
func (p *Plan) stockhamSoA(dst, src cvec.SoA, dir Direction) {
	p.ensureSoA()
	wp := p.soa.work.Get().(*cvec.SoA)
	defer p.soa.work.Put(wp)
	w := *wp

	a, b := dst, w
	if len(p.stages)%2 != 0 {
		a, b = w, dst
	}
	if dir == Forward {
		src.CopyTo(a)
	} else {
		copy(a.Re, src.Re)
		for i, v := range src.Im {
			a.Im[i] = -v
		}
	}
	for i := range p.stages {
		runStageSoA(&p.stages[i], b, a)
		a, b = b, a
	}
	if dir == Inverse {
		inv := 1 / float64(p.n)
		for i := range dst.Re {
			dst.Re[i] *= inv
		}
		for i := range dst.Im {
			dst.Im[i] = -dst.Im[i] * inv
		}
	}
}
