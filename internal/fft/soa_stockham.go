package fft

import "soifft/internal/cvec"

// Split-plane (SoA) Stockham stage kernels. Each function is the exact
// arithmetic of its stockham.go twin with every complex operation expanded
// into the four float64 streams (rr, ii, ri, ir), so results match AoS up
// to floating-point reassociation (in practice bit-exactly, since the
// operation order is preserved — the oracle suite cross-checks at 1e-12
// regardless).
//
// The slice preambles reslice each stream to the loop bound so the inner
// loops compile bounds-check-free (pinned in bce_budget.json); that, plus
// complex values never being packed/unpacked through 16-byte pairs, is
// where the SoA kernels' throughput comes from.

// runStageSoA executes one split-plane Stockham pass: y <- butterfly(x).
// The stage's twiddle planes must be populated (ensureSoAStages).
func runStageSoA(st *stage, y, x cvec.SoA) {
	switch st.r {
	case 2:
		stageRadix2SoA(st, y.Re, y.Im, x.Re, x.Im)
	case 3:
		stageRadix3SoA(st, y.Re, y.Im, x.Re, x.Im)
	case 4:
		stageRadix4SoA(st, y.Re, y.Im, x.Re, x.Im)
	case 8:
		stageRadix8SoA(st, y.Re, y.Im, x.Re, x.Im)
	default:
		stageGenericSoA(st, y.Re, y.Im, x.Re, x.Im)
	}
}

func stageRadix2SoA(st *stage, yre, yim, xre, xim []float64) {
	m, s := st.m, st.s
	if s == 1 {
		twr, twi := st.twRe[:m], st.twIm[:m]
		x0r, x0i := xre[:m], xim[:m]
		x1r, x1i := xre[m:2*m], xim[m:2*m]
		yre, yim = yre[:2*m], yim[:2*m]
		for p := 0; p < m; p++ {
			wr, wi := twr[p], twi[p]
			ar, ai := x0r[p], x0i[p]
			br, bi := x1r[p], x1i[p]
			yre[2*p] = ar + br
			yim[2*p] = ai + bi
			dr, di := ar-br, ai-bi
			yre[2*p+1] = dr*wr - di*wi
			yim[2*p+1] = dr*wi + di*wr
		}
		return
	}
	for p := 0; p < m; p++ {
		wr, wi := st.twRe[p], st.twIm[p]
		x0r, x0i := xre[s*p:][:s], xim[s*p:][:s]
		x1r, x1i := xre[s*(p+m):][:s], xim[s*(p+m):][:s]
		y0r, y0i := yre[s*2*p:][:s], yim[s*2*p:][:s]
		y1r, y1i := yre[s*(2*p+1):][:s], yim[s*(2*p+1):][:s]
		for q := 0; q < s; q++ {
			ar, ai := x0r[q], x0i[q]
			br, bi := x1r[q], x1i[q]
			y0r[q] = ar + br
			y0i[q] = ai + bi
			dr, di := ar-br, ai-bi
			y1r[q] = dr*wr - di*wi
			y1i[q] = dr*wi + di*wr
		}
	}
}

func stageRadix4SoA(st *stage, yre, yim, xre, xim []float64) {
	m, s := st.m, st.s
	if s == 1 {
		twr, twi := st.twRe[:3*m], st.twIm[:3*m]
		for p := 0; p < m; p++ {
			w1r, w1i := twr[p*3], twi[p*3]
			w2r, w2i := twr[p*3+1], twi[p*3+1]
			w3r, w3i := twr[p*3+2], twi[p*3+2]
			u0r, u0i := xre[p], xim[p]
			u1r, u1i := xre[p+m], xim[p+m]
			u2r, u2i := xre[p+2*m], xim[p+2*m]
			u3r, u3i := xre[p+3*m], xim[p+3*m]
			ar, ai := u0r+u2r, u0i+u2i
			cr, ci := u0r-u2r, u0i-u2i
			br, bi := u1r+u3r, u1i+u3i
			dr, di := u1r-u3r, u1i-u3i
			// id = i*d = (-di, dr)
			yre[4*p] = ar + br
			yim[4*p] = ai + bi
			t1r, t1i := cr+di, ci-dr // c - id
			yre[4*p+1] = t1r*w1r - t1i*w1i
			yim[4*p+1] = t1r*w1i + t1i*w1r
			t2r, t2i := ar-br, ai-bi
			yre[4*p+2] = t2r*w2r - t2i*w2i
			yim[4*p+2] = t2r*w2i + t2i*w2r
			t3r, t3i := cr-di, ci+dr // c + id
			yre[4*p+3] = t3r*w3r - t3i*w3i
			yim[4*p+3] = t3r*w3i + t3i*w3r
		}
		return
	}
	for p := 0; p < m; p++ {
		w1r, w1i := st.twRe[p*3], st.twIm[p*3]
		w2r, w2i := st.twRe[p*3+1], st.twIm[p*3+1]
		w3r, w3i := st.twRe[p*3+2], st.twIm[p*3+2]
		x0r, x0i := xre[s*p:][:s], xim[s*p:][:s]
		x1r, x1i := xre[s*(p+m):][:s], xim[s*(p+m):][:s]
		x2r, x2i := xre[s*(p+2*m):][:s], xim[s*(p+2*m):][:s]
		x3r, x3i := xre[s*(p+3*m):][:s], xim[s*(p+3*m):][:s]
		y0r, y0i := yre[s*4*p:][:s], yim[s*4*p:][:s]
		y1r, y1i := yre[s*(4*p+1):][:s], yim[s*(4*p+1):][:s]
		y2r, y2i := yre[s*(4*p+2):][:s], yim[s*(4*p+2):][:s]
		y3r, y3i := yre[s*(4*p+3):][:s], yim[s*(4*p+3):][:s]
		for q := 0; q < s; q++ {
			u0r, u0i := x0r[q], x0i[q]
			u1r, u1i := x1r[q], x1i[q]
			u2r, u2i := x2r[q], x2i[q]
			u3r, u3i := x3r[q], x3i[q]
			ar, ai := u0r+u2r, u0i+u2i
			cr, ci := u0r-u2r, u0i-u2i
			br, bi := u1r+u3r, u1i+u3i
			dr, di := u1r-u3r, u1i-u3i
			y0r[q] = ar + br
			y0i[q] = ai + bi
			t1r, t1i := cr+di, ci-dr
			y1r[q] = t1r*w1r - t1i*w1i
			y1i[q] = t1r*w1i + t1i*w1r
			t2r, t2i := ar-br, ai-bi
			y2r[q] = t2r*w2r - t2i*w2i
			y2i[q] = t2r*w2i + t2i*w2r
			t3r, t3i := cr-di, ci+dr
			y3r[q] = t3r*w3r - t3i*w3i
			y3i[q] = t3r*w3i + t3i*w3r
		}
	}
}

func stageRadix3SoA(st *stage, yre, yim, xre, xim []float64) {
	m, s := st.m, st.s
	k := sin2pi3
	for p := 0; p < m; p++ {
		w1r, w1i := st.twRe[p*2], st.twIm[p*2]
		w2r, w2i := st.twRe[p*2+1], st.twIm[p*2+1]
		x0r, x0i := xre[s*p:][:s], xim[s*p:][:s]
		x1r, x1i := xre[s*(p+m):][:s], xim[s*(p+m):][:s]
		x2r, x2i := xre[s*(p+2*m):][:s], xim[s*(p+2*m):][:s]
		y0r, y0i := yre[s*3*p:][:s], yim[s*3*p:][:s]
		y1r, y1i := yre[s*(3*p+1):][:s], yim[s*(3*p+1):][:s]
		y2r, y2i := yre[s*(3*p+2):][:s], yim[s*(3*p+2):][:s]
		for q := 0; q < s; q++ {
			u0r, u0i := x0r[q], x0i[q]
			u1r, u1i := x1r[q], x1i[q]
			u2r, u2i := x2r[q], x2i[q]
			t1r, t1i := u1r+u2r, u1i+u2i
			ar, ai := u0r-0.5*t1r, u0i-0.5*t1i
			br, bi := k*(u1r-u2r), k*(u1i-u2i)
			// ib = i*b = (-bi, br)
			y0r[q] = u0r + t1r
			y0i[q] = u0i + t1i
			v1r, v1i := ar+bi, ai-br // a - ib
			y1r[q] = v1r*w1r - v1i*w1i
			y1i[q] = v1r*w1i + v1i*w1r
			v2r, v2i := ar-bi, ai+br // a + ib
			y2r[q] = v2r*w2r - v2i*w2i
			y2i[q] = v2r*w2i + v2i*w2r
		}
	}
}

func stageRadix8SoA(st *stage, yre, yim, xre, xim []float64) {
	m, s := st.m, st.s
	c := invSqrt2
	if s == 1 {
		stageRadix8SoAUnit(st, yre, yim, xre, xim)
		return
	}
	for p := 0; p < m; p++ {
		twr := st.twRe[p*7 : p*7+7]
		twi := st.twIm[p*7 : p*7+7]
		x0r, x0i := xre[s*p:][:s], xim[s*p:][:s]
		x1r, x1i := xre[s*(p+m):][:s], xim[s*(p+m):][:s]
		x2r, x2i := xre[s*(p+2*m):][:s], xim[s*(p+2*m):][:s]
		x3r, x3i := xre[s*(p+3*m):][:s], xim[s*(p+3*m):][:s]
		x4r, x4i := xre[s*(p+4*m):][:s], xim[s*(p+4*m):][:s]
		x5r, x5i := xre[s*(p+5*m):][:s], xim[s*(p+5*m):][:s]
		x6r, x6i := xre[s*(p+6*m):][:s], xim[s*(p+6*m):][:s]
		x7r, x7i := xre[s*(p+7*m):][:s], xim[s*(p+7*m):][:s]
		y0r, y0i := yre[s*8*p:][:s], yim[s*8*p:][:s]
		y1r, y1i := yre[s*(8*p+1):][:s], yim[s*(8*p+1):][:s]
		y2r, y2i := yre[s*(8*p+2):][:s], yim[s*(8*p+2):][:s]
		y3r, y3i := yre[s*(8*p+3):][:s], yim[s*(8*p+3):][:s]
		y4r, y4i := yre[s*(8*p+4):][:s], yim[s*(8*p+4):][:s]
		y5r, y5i := yre[s*(8*p+5):][:s], yim[s*(8*p+5):][:s]
		y6r, y6i := yre[s*(8*p+6):][:s], yim[s*(8*p+6):][:s]
		y7r, y7i := yre[s*(8*p+7):][:s], yim[s*(8*p+7):][:s]
		for q := 0; q < s; q++ {
			u0r, u0i := x0r[q], x0i[q]
			u1r, u1i := x1r[q], x1i[q]
			u2r, u2i := x2r[q], x2i[q]
			u3r, u3i := x3r[q], x3i[q]
			u4r, u4i := x4r[q], x4i[q]
			u5r, u5i := x5r[q], x5i[q]
			u6r, u6i := x6r[q], x6i[q]
			u7r, u7i := x7r[q], x7i[q]
			a0r, a0i := u0r+u4r, u0i+u4i
			a1r, a1i := u1r+u5r, u1i+u5i
			a2r, a2i := u2r+u6r, u2i+u6i
			a3r, a3i := u3r+u7r, u3i+u7i
			b0r, b0i := u0r-u4r, u0i-u4i
			b1r, b1i := u1r-u5r, u1i-u5i
			b2r, b2i := u2r-u6r, u2i-u6i
			b3r, b3i := u3r-u7r, u3i-u7i
			// b1 *= W8^1 = c*(1-i); b2 *= -i; b3 *= -c*(1+i).
			b1r, b1i = c*(b1r+b1i), c*(b1i-b1r)
			b2r, b2i = b2i, -b2r
			b3r, b3i = c*(b3i-b3r), -c*(b3r+b3i)
			{
				ar, ai := a0r+a2r, a0i+a2i
				cr, ci := a0r-a2r, a0i-a2i
				br, bi := a1r+a3r, a1i+a3i
				dr, di := a1r-a3r, a1i-a3i
				y0r[q] = ar + br
				y0i[q] = ai + bi
				tr, ti := cr+di, ci-dr
				y2r[q] = tr*twr[1] - ti*twi[1]
				y2i[q] = tr*twi[1] + ti*twr[1]
				tr, ti = ar-br, ai-bi
				y4r[q] = tr*twr[3] - ti*twi[3]
				y4i[q] = tr*twi[3] + ti*twr[3]
				tr, ti = cr-di, ci+dr
				y6r[q] = tr*twr[5] - ti*twi[5]
				y6i[q] = tr*twi[5] + ti*twr[5]
			}
			{
				ar, ai := b0r+b2r, b0i+b2i
				cr, ci := b0r-b2r, b0i-b2i
				br, bi := b1r+b3r, b1i+b3i
				dr, di := b1r-b3r, b1i-b3i
				tr, ti := ar+br, ai+bi
				y1r[q] = tr*twr[0] - ti*twi[0]
				y1i[q] = tr*twi[0] + ti*twr[0]
				tr, ti = cr+di, ci-dr
				y3r[q] = tr*twr[2] - ti*twi[2]
				y3i[q] = tr*twi[2] + ti*twr[2]
				tr, ti = ar-br, ai-bi
				y5r[q] = tr*twr[4] - ti*twi[4]
				y5i[q] = tr*twi[4] + ti*twr[4]
				tr, ti = cr-di, ci+dr
				y7r[q] = tr*twr[6] - ti*twi[6]
				y7i[q] = tr*twi[6] + ti*twr[6]
			}
		}
	}
}

// stageRadix8SoAUnit is the s==1 specialization of stageRadix8SoA: the last
// pass of a radix-8-first factorization, where each butterfly touches single
// elements and the 32 per-p slice preambles of the general path would cost
// more than the arithmetic they guard.
func stageRadix8SoAUnit(st *stage, yre, yim, xre, xim []float64) {
	m := st.m
	c := invSqrt2
	twr, twi := st.twRe[:7*m], st.twIm[:7*m]
	xre, xim = xre[:8*m], xim[:8*m]
	yre, yim = yre[:8*m], yim[:8*m]
	for p := 0; p < m; p++ {
		u0r, u0i := xre[p], xim[p]
		u1r, u1i := xre[p+m], xim[p+m]
		u2r, u2i := xre[p+2*m], xim[p+2*m]
		u3r, u3i := xre[p+3*m], xim[p+3*m]
		u4r, u4i := xre[p+4*m], xim[p+4*m]
		u5r, u5i := xre[p+5*m], xim[p+5*m]
		u6r, u6i := xre[p+6*m], xim[p+6*m]
		u7r, u7i := xre[p+7*m], xim[p+7*m]
		a0r, a0i := u0r+u4r, u0i+u4i
		a1r, a1i := u1r+u5r, u1i+u5i
		a2r, a2i := u2r+u6r, u2i+u6i
		a3r, a3i := u3r+u7r, u3i+u7i
		b0r, b0i := u0r-u4r, u0i-u4i
		b1r, b1i := u1r-u5r, u1i-u5i
		b2r, b2i := u2r-u6r, u2i-u6i
		b3r, b3i := u3r-u7r, u3i-u7i
		// b1 *= W8^1 = c*(1-i); b2 *= -i; b3 *= -c*(1+i).
		b1r, b1i = c*(b1r+b1i), c*(b1i-b1r)
		b2r, b2i = b2i, -b2r
		b3r, b3i = c*(b3i-b3r), -c*(b3r+b3i)
		w := p * 7
		{
			ar, ai := a0r+a2r, a0i+a2i
			cr, ci := a0r-a2r, a0i-a2i
			br, bi := a1r+a3r, a1i+a3i
			dr, di := a1r-a3r, a1i-a3i
			yre[8*p] = ar + br
			yim[8*p] = ai + bi
			tr, ti := cr+di, ci-dr
			yre[8*p+2] = tr*twr[w+1] - ti*twi[w+1]
			yim[8*p+2] = tr*twi[w+1] + ti*twr[w+1]
			tr, ti = ar-br, ai-bi
			yre[8*p+4] = tr*twr[w+3] - ti*twi[w+3]
			yim[8*p+4] = tr*twi[w+3] + ti*twr[w+3]
			tr, ti = cr-di, ci+dr
			yre[8*p+6] = tr*twr[w+5] - ti*twi[w+5]
			yim[8*p+6] = tr*twi[w+5] + ti*twr[w+5]
		}
		{
			ar, ai := b0r+b2r, b0i+b2i
			cr, ci := b0r-b2r, b0i-b2i
			br, bi := b1r+b3r, b1i+b3i
			dr, di := b1r-b3r, b1i-b3i
			tr, ti := ar+br, ai+bi
			yre[8*p+1] = tr*twr[w] - ti*twi[w]
			yim[8*p+1] = tr*twi[w] + ti*twr[w]
			tr, ti = cr+di, ci-dr
			yre[8*p+3] = tr*twr[w+2] - ti*twi[w+2]
			yim[8*p+3] = tr*twi[w+2] + ti*twr[w+2]
			tr, ti = ar-br, ai-bi
			yre[8*p+5] = tr*twr[w+4] - ti*twi[w+4]
			yim[8*p+5] = tr*twi[w+4] + ti*twr[w+4]
			tr, ti = cr-di, ci+dr
			yre[8*p+7] = tr*twr[w+6] - ti*twi[w+6]
			yim[8*p+7] = tr*twi[w+6] + ti*twr[w+6]
		}
	}
}

// stageGenericSoA handles the small odd primes (5, 7, 11, 13) with an
// r-point matrix DFT per butterfly; the per-butterfly scratch lives in two
// fixed stack arrays (no allocation, unlike the AoS twin's pooled slice).
func stageGenericSoA(st *stage, yre, yim, xre, xim []float64) {
	r, m, s := st.r, st.m, st.s
	var uRe, uIm [maxGenericRadix]float64
	for p := 0; p < m; p++ {
		twr := st.twRe[p*(r-1) : p*(r-1)+(r-1)]
		twi := st.twIm[p*(r-1) : p*(r-1)+(r-1)]
		for q := 0; q < s; q++ {
			for t := 0; t < r; t++ {
				uRe[t] = xre[q+s*(p+m*t)]
				uIm[t] = xim[q+s*(p+m*t)]
			}
			accR, accI := uRe[0], uIm[0]
			for t := 1; t < r; t++ {
				accR += uRe[t]
				accI += uIm[t]
			}
			yre[q+s*r*p] = accR
			yim[q+s*r*p] = accI
			for t := 1; t < r; t++ {
				wrr := st.wrRe[t*r : t*r+r]
				wri := st.wrIm[t*r : t*r+r]
				accR, accI = uRe[0], uIm[0]
				for uu := 1; uu < r; uu++ {
					vr, vi := uRe[uu], uIm[uu]
					accR += vr*wrr[uu] - vi*wri[uu]
					accI += vr*wri[uu] + vi*wrr[uu]
				}
				tr, ti := twr[t-1], twi[t-1]
				yre[q+s*(r*p+t)] = accR*tr - accI*ti
				yim[q+s*(r*p+t)] = accR*ti + accI*tr
			}
		}
	}
}
