package fft

import (
	"soifft/internal/cvec"
	"soifft/internal/par"
)

// Split-plane execution for SixStepOpt. It keeps the exact Fig. 4b sweep
// structure of forwardOpt — fused gather/FFT/twiddle column tiles, then
// fused row-FFT/permute/demodulation — but every staging buffer and
// both passes run on separate float64 planes. Layout conversion is free in
// the sweep accounting: the tile gather already touches every input element
// once (it deinterleaves AoS src into the plane slab as it copies), and the
// final row scatter already touches every output element once (it
// reinterleaves into AoS dst), so Forward keeps its 4-sweep budget while
// the FFT kernels in between run plane arithmetic end to end.

// initSoA builds the split twiddle tables and arms the plane pools.
func (s *SixStep) initSoA() {
	s.twARe, s.twAIm = splitPlanes(s.twA)
	s.twBRe, s.twBIm = splitPlanes(s.twB)
	n, n1, n2 := s.n, s.n1, s.n2
	s.workSoA.New = func() any {
		v := cvec.NewSoA(n)
		return &v
	}
	s.tileSoAPool.New = func() any {
		v := cvec.NewSoA(tileCols * (n1 + rowPad))
		return &v
	}
	s.rowSoAPool.New = func() any {
		v := cvec.NewSoA((n2 + rowPad) * tileCols)
		return &v
	}
}

// twiddleOptSoA is twiddleOpt on the split tables: W_n^e as (re, im), with
// the same mask-and-shift index split and one complex multiply expanded to
// four real ones.
func (s *SixStep) twiddleOptSoA(e int) (float64, float64) {
	ar, ai := s.twARe[e&(s.twK-1)], s.twAIm[e&(s.twK-1)]
	br, bi := s.twBRe[e>>s.twKShift], s.twBIm[e>>s.twKShift]
	return ar*br - ai*bi, ar*bi + ai*br
}

// forwardOptSoA is the Fig. 4b pipeline on planes behind Forward's AoS
// signature: the layout conversion is fused into the staging sweeps.
func (s *SixStep) forwardOptSoA(dst, src []complex128) {
	wp := s.workSoA.Get().(*cvec.SoA)
	defer s.workSoA.Put(wp)
	w := *wp

	ntiles := (s.n2 + tileCols - 1) / tileCols
	par.ForChunked(s.workers, ntiles, 8, func(lo, hi int) {
		bp := s.tileSoAPool.Get().(*cvec.SoA)
		defer s.tileSoAPool.Put(bp)
		for t := lo; t < hi; t++ {
			s.gatherTileSoA(*bp, src, t)
			s.processTileSoA(w, *bp, t)
		}
	})
	par.ForChunked(s.workers, s.n1, tileCols, func(lo, hi int) {
		rp := s.rowSoAPool.Get().(*cvec.SoA)
		defer s.rowSoAPool.Put(rp)
		s.rowGroupFFTScatterSoA(dst, w, lo, hi, *rp)
	})
}

// gatherTileSoA is gatherTile staging into a plane slab. Reading from src
// deinterleaves on the fly — the same elements move, split across two
// streams — so the pass stays one sweep. Slab geometry matches the AoS
// twin: row-major for full lane tiles, padded column-major otherwise.
func (s *SixStep) gatherTileSoA(buf cvec.SoA, src []complex128, tile int) {
	n1, n2 := s.n1, s.n2
	j2lo := tile * tileCols
	cols := min(tileCols, n2-j2lo)
	if s.useLane(cols) {
		for j1 := 0; j1 < n1; j1++ {
			srow := src[j1*n2+j2lo : j1*n2+j2lo+tileCols]
			br := buf.Re[j1*tileCols : j1*tileCols+tileCols]
			bi := buf.Im[j1*tileCols : j1*tileCols+tileCols]
			for c, v := range srow {
				br[c] = real(v)
				bi[c] = imag(v)
			}
		}
		return
	}
	stride := n1 + rowPad
	for j1 := 0; j1 < n1; j1++ {
		srow := src[j1*n2+j2lo : j1*n2+j2lo+cols]
		for c, v := range srow {
			buf.Re[c*stride+j1] = real(v)
			buf.Im[c*stride+j1] = imag(v)
		}
	}
}

// processTileSoA is processTile on planes: lane-interleaved plane FFTs for
// full tiles, per-column plane FFTs otherwise, then the incremental-exponent
// twiddle scatter with the complex multiply expanded over the split tables.
func (s *SixStep) processTileSoA(w, buf cvec.SoA, tile int) {
	n1, n2 := s.n1, s.n2
	j2lo := tile * tileCols
	cols := min(tileCols, n2-j2lo)
	if s.useLane(cols) {
		s.lane.ForwardSoA(buf.Slice(0, n1*tileCols))
		for k1 := 0; k1 < n1; k1++ {
			rowR := buf.Re[k1*tileCols : k1*tileCols+tileCols]
			rowI := buf.Im[k1*tileCols : k1*tileCols+tileCols]
			outR := w.Re[k1*n2+j2lo:]
			outI := w.Im[k1*n2+j2lo:]
			e := j2lo * k1 % s.n
			for c := 0; c < tileCols; c++ {
				twr, twi := s.twiddleOptSoA(e)
				vr, vi := rowR[c], rowI[c]
				outR[c] = vr*twr - vi*twi
				outI[c] = vr*twi + vi*twr
				e += k1
				if e >= s.n {
					e -= s.n
				}
			}
		}
		return
	}
	stride := n1 + rowPad
	for c := 0; c < cols; c++ {
		col := buf.Slice(c*stride, c*stride+n1)
		s.p1.ForwardSoA(col, col)
	}
	for k1 := 0; k1 < n1; k1++ {
		outR := w.Re[k1*n2+j2lo:]
		outI := w.Im[k1*n2+j2lo:]
		e := j2lo * k1 % s.n
		for c := 0; c < cols; c++ {
			twr, twi := s.twiddleOptSoA(e)
			vr, vi := buf.Re[c*stride+k1], buf.Im[c*stride+k1]
			outR[c] = vr*twr - vi*twi
			outI[c] = vr*twi + vi*twr
			e += k1
			if e >= s.n {
				e -= s.n
			}
		}
	}
}

// rowGroupFFTScatterSoA is rowGroupFFTScatter on planes: the n2-point FFTs
// of rows [lo, hi) run on the padded plane buffer, then the stride-n1
// permutation writes natural order, reinterleaving (and demodulating) on
// the fly.
func (s *SixStep) rowGroupFFTScatterSoA(dst []complex128, w cvec.SoA, lo, hi int, rbuf cvec.SoA) {
	n1, n2 := s.n1, s.n2
	rows := hi - lo
	stride := n2 + rowPad
	for r := 0; r < rows; r++ {
		s.p2.ForwardSoA(rbuf.Slice(r*stride, r*stride+n2), w.Slice((lo+r)*n2, (lo+r+1)*n2))
	}
	rre, rim := rbuf.Re, rbuf.Im
	if s.demod != nil {
		for k2 := 0; k2 < n2; k2++ {
			base := lo + n1*k2
			for r := 0; r < rows; r++ {
				dst[base+r] = complex(rre[r*stride+k2], rim[r*stride+k2]) * s.demod[base+r]
			}
		}
		return
	}
	for k2 := 0; k2 < n2; k2++ {
		base := lo + n1*k2
		for r := 0; r < rows; r++ {
			dst[base+r] = complex(rre[r*stride+k2], rim[r*stride+k2])
		}
	}
}
