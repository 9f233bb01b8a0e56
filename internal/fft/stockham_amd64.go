package fft

import "soifft/internal/cpu"

// haveAVX2 selects the kernels of stockham_amd64.s over their Go twins. It is
// decided once, here; only tests assign it, to run the portable path on an
// AVX2 host.
var haveAVX2 = cpu.AVX2

//go:noescape
func radix8AVX2(y, x, tw *complex128, m, s, xs int)

//go:noescape
func radix8UnitAVX2(y, x *complex128, twv *float64, m int)

//go:noescape
func radix4AVX2(y, x, tw *complex128, m, s, xs int)

//go:noescape
func radix2AVX2(y, x, tw *complex128, m, s, xs int)

//go:noescape
func radix7AVX2(y, x *complex128, cs *float64, s, xs int)

//go:noescape
func dft8ColsAVX2(y *complex128, ys int, x *complex128, xs, pairs int)

//go:noescape
func twiddleTileAVX2(w, buf, twA, twB *complex128, n1, n2, j2lo, n, k int, shift uint)

//go:noescape
func demodScatterAVX2(dst, rbuf, demod *complex128, n1, n2, stride int)

//go:noescape
func radix2DemodulateAVX2(dst, x, d, w *complex128, s, both, only int)

// stageVec runs st with its vector kernel, when the host has AVX2 and there
// is one for the stage's radix and shape, and reports whether it did. The
// kernels take two complex128 per register: the strided ones (radices 2, 4
// and 8, and radix 7's untwiddled m = 1 pass) two q at a time (s even), the
// unit-stride radix-8 two butterflies at a time (m even, twv built). The
// reslices are the kernels' bounds checks: each reads exactly
// x[:xs*(r*m-1)+s] and tw[:(r-1)*m] (radix 7: cs[:18] instead) and writes
// y[:r*m*s].
func stageVec(st *stage, y, x []complex128) bool {
	if !haveAVX2 {
		return false
	}
	r, m, s, xs := st.r, st.m, st.s, st.readStride()
	if r == 8 && s == 1 && xs == 1 && st.twv != nil {
		y, x = y[:8*m], x[:8*m]
		radix8UnitAVX2(&y[0], &x[0], &st.twv[:28*m][0], m)
		return true
	}
	if r == 7 && m == 1 && s%2 == 0 {
		y, x = y[:7*s], x[:6*xs+s]
		radix7AVX2(&y[0], &x[0], &st.cs[:18][0], s, xs)
		return true
	}
	if s%2 != 0 || (r != 2 && r != 4 && r != 8) {
		return false
	}
	y, x = y[:r*m*s], x[:xs*(r*m-1)+s]
	tw := st.tw[:(r-1)*m]
	switch r {
	case 8:
		radix8AVX2(&y[0], &x[0], &tw[0], m, s, xs)
	case 4:
		radix4AVX2(&y[0], &x[0], &tw[0], m, s, xs)
	default:
		radix2AVX2(&y[0], &x[0], &tw[0], m, s, xs)
	}
	return true
}

// dft8ColsVec runs dft8 on the leading even number of the rows columns of x
// (row stride xs), storing bin f of column r at y[f*ys + r], and returns how
// many columns it transformed. The reslices are the kernel's bounds checks:
// it reads x[k*xs + r] and writes y[f*ys + r] for r below that count.
func dft8ColsVec(y []complex128, ys int, x []complex128, xs, rows int) int {
	pairs := rows / 2
	if !haveAVX2 || pairs == 0 {
		return 0
	}
	x, y = x[:7*xs+2*pairs], y[:7*ys+2*pairs]
	dft8ColsAVX2(&y[0], ys, &x[0], xs, pairs)
	return 2 * pairs
}

// twiddleTileVec is the vector kernel of twiddleTile; it reports false when
// the host has no AVX2.
func (s *SixStep) twiddleTileVec(w, buf []complex128, j2lo int) bool {
	if !haveAVX2 {
		return false
	}
	n1, n2 := s.n1, s.n2
	w = w[j2lo : (n1-1)*n2+j2lo+tileCols]
	buf = buf[:n1*tileCols]
	twA, twB := s.twA[:s.twK], s.twB[:(s.n-1)>>s.twKShift+1]
	twiddleTileAVX2(&w[0], &buf[0], &twA[0], &twB[0], n1, n2, j2lo, s.n, s.twK, s.twKShift)
	return true
}

// demodScatterVec is the vector kernel of rowGroupFFTScatter's fused
// demodulation for a full group of tileCols rows starting at row lo; it
// reports false when the host has no AVX2.
func (s *SixStep) demodScatterVec(dst, rbuf []complex128, lo, stride int) bool {
	if !haveAVX2 {
		return false
	}
	n1, n2 := s.n1, s.n2
	last := lo + n1*(n2-1) + tileCols
	dst, demod := dst[lo:last], s.demod[lo:last]
	rbuf = rbuf[:(tileCols-1)*stride+n2]
	demodScatterAVX2(&dst[0], &rbuf[0], &demod[0], n1, n2, stride)
	return true
}

// radix2DemodulateVec runs all of radix2Demodulate's butterflies with the
// vector kernel, two q at a time, and returns s; it runs none and returns 0
// when the host has no AVX2, or when s or the count of q with both outputs
// in dst is odd, which would split a register's pair. The reslices are the
// kernel's bounds checks.
func radix2DemodulateVec(dst, x []complex128, w complex128, d []complex128) int {
	s := len(x) / 2
	both := len(dst) - s
	if !haveAVX2 || both%2 != 0 || s%2 != 0 {
		return 0
	}
	x, d = x[:2*s], d[:len(dst)]
	radix2DemodulateAVX2(&dst[0], &x[0], &d[0], &w, s, both/2, (s-both)/2)
	return s
}
