package fft

import "math"

// The Stockham autosort kernel. Each stage transforms
//
//	y[q + s*(r*p + t)] = sum_u x[q + s*(p + m*u)] * W_r^{t*u} * W_{r*m}^{p*t}
//
// for p in [0,m), q in [0,s), t in [0,r), where s is the accumulated stride
// (product of the radices of earlier stages). The permutation is folded into
// the butterfly addressing, so no bit-reversal pass (and no extra memory
// sweep) is ever needed — the property that makes Stockham the standard
// choice for bandwidth-bound FFTs.
//
// The s == 1 case (the first stage, where inner vectors are single elements)
// is special-cased in the radix-2, -4 and -8 butterflies to keep the hot
// first pass free of the inner q loop overhead.
//
// Every stage reads x at row stride xs = st.readStride(): input leg u of
// butterfly p is x[q + xs*(p + m*u)]. A stage reading the previous stage's
// output has xs == s; the first stage of a plan may read its caller's
// vector in place, and the first stage of a lane batch inside the six-step
// reads the columns of a row-major matrix, xs being its row length (see
// runStages).

func stageRadix2(st *stage, y, x []complex128) {
	xs := st.readStride()
	m, s := st.m, st.s
	if s == 1 && xs == 1 {
		for p := 0; p < m; p++ {
			w := st.tw[p]
			a, b := x[p], x[p+m]
			y[2*p] = a + b
			y[2*p+1] = (a - b) * w
		}
		return
	}
	for p := 0; p < m; p++ {
		w := st.tw[p]
		x0 := x[xs*p:]
		x1 := x[xs*(p+m):]
		y0 := y[s*2*p:]
		y1 := y[s*(2*p+1):]
		for q := 0; q < s; q++ {
			a, b := x0[q], x1[q]
			y0[q] = a + b
			y1[q] = (a - b) * w
		}
	}
}

// mulByI returns i*z without a full complex multiply.
func mulByI(z complex128) complex128 { return complex(-imag(z), real(z)) }

func stageRadix4(st *stage, y, x []complex128) {
	xs := st.readStride()
	m, s := st.m, st.s
	if s == 1 && xs == 1 {
		for p := 0; p < m; p++ {
			w1 := st.tw[p*3]
			w2 := st.tw[p*3+1]
			w3 := st.tw[p*3+2]
			u0, u1, u2, u3 := x[p], x[p+m], x[p+2*m], x[p+3*m]
			a, c := u0+u2, u0-u2
			b, d := u1+u3, u1-u3
			id := mulByI(d)
			y[4*p] = a + b
			y[4*p+1] = (c - id) * w1
			y[4*p+2] = (a - b) * w2
			y[4*p+3] = (c + id) * w3
		}
		return
	}
	for p := 0; p < m; p++ {
		w1 := st.tw[p*3]
		w2 := st.tw[p*3+1]
		w3 := st.tw[p*3+2]
		x0 := x[xs*p:]
		x1 := x[xs*(p+m):]
		x2 := x[xs*(p+2*m):]
		x3 := x[xs*(p+3*m):]
		y0 := y[s*4*p:]
		y1 := y[s*(4*p+1):]
		y2 := y[s*(4*p+2):]
		y3 := y[s*(4*p+3):]
		for q := 0; q < s; q++ {
			u0, u1, u2, u3 := x0[q], x1[q], x2[q], x3[q]
			a, c := u0+u2, u0-u2
			b, d := u1+u3, u1-u3
			id := mulByI(d)
			y0[q] = a + b
			y1[q] = (c - id) * w1
			y2[q] = (a - b) * w2
			y3[q] = (c + id) * w3
		}
	}
}

// sin2pi3 = sin(2*pi/3), the radix-3 butterfly constant.
var sin2pi3 = math.Sin(2 * math.Pi / 3)

func stageRadix3(st *stage, y, x []complex128) {
	xs := st.readStride()
	m, s := st.m, st.s
	for p := 0; p < m; p++ {
		w1 := st.tw[p*2]
		w2 := st.tw[p*2+1]
		x0 := x[xs*p:]
		x1 := x[xs*(p+m):]
		x2 := x[xs*(p+2*m):]
		y0 := y[s*3*p:]
		y1 := y[s*(3*p+1):]
		y2 := y[s*(3*p+2):]
		for q := 0; q < s; q++ {
			u0, u1, u2 := x0[q], x1[q], x2[q]
			t1 := u1 + u2
			a := u0 - 0.5*t1
			b := complex(sin2pi3, 0) * (u1 - u2)
			ib := mulByI(b)
			y0[q] = u0 + t1
			y1[q] = (a - ib) * w1
			y2[q] = (a + ib) * w2
		}
	}
}

// stageRadix8 runs the radix-8 butterfly: an inline 8-point DFT (two
// radix-4 halves joined by the W8 constants, exactly the dft8 codelet) plus
// the stage twiddles. The higher radix cuts the number of Stockham passes
// over memory to log8(n), the paper's "radix 8 and 16, case by case".
// It is correct at every stride; runStage sends s == xs == 1 to
// stageRadix8Unit.
func stageRadix8(st *stage, y, x []complex128) {
	xs := st.readStride()
	m, s := st.m, st.s
	for p := 0; p < m; p++ {
		tw := st.tw[p*7 : p*7+7]
		x0 := x[xs*p:]
		x1 := x[xs*(p+m):]
		x2 := x[xs*(p+2*m):]
		x3 := x[xs*(p+3*m):]
		x4 := x[xs*(p+4*m):]
		x5 := x[xs*(p+5*m):]
		x6 := x[xs*(p+6*m):]
		x7 := x[xs*(p+7*m):]
		y0 := y[s*8*p:]
		y1 := y[s*(8*p+1):]
		y2 := y[s*(8*p+2):]
		y3 := y[s*(8*p+3):]
		y4 := y[s*(8*p+4):]
		y5 := y[s*(8*p+5):]
		y6 := y[s*(8*p+6):]
		y7 := y[s*(8*p+7):]
		for q := 0; q < s; q++ {
			u0, u1, u2, u3 := x0[q], x1[q], x2[q], x3[q]
			u4, u5, u6, u7 := x4[q], x5[q], x6[q], x7[q]
			a0, a1, a2, a3 := u0+u4, u1+u5, u2+u6, u3+u7
			b0 := u0 - u4
			b1 := u1 - u5
			b2 := u2 - u6
			b3 := u3 - u7
			b1 = complex(invSqrt2*(real(b1)+imag(b1)), invSqrt2*(imag(b1)-real(b1)))
			b2 = complex(imag(b2), -real(b2))
			b3 = complex(invSqrt2*(imag(b3)-real(b3)), -invSqrt2*(real(b3)+imag(b3)))
			{
				a, c := a0+a2, a0-a2
				b, d := a1+a3, a1-a3
				id := mulByI(d)
				y0[q] = a + b
				y2[q] = (c - id) * tw[1]
				y4[q] = (a - b) * tw[3]
				y6[q] = (c + id) * tw[5]
			}
			{
				a, c := b0+b2, b0-b2
				b, d := b1+b3, b1-b3
				id := mulByI(d)
				y1[q] = (a + b) * tw[0]
				y3[q] = (c - id) * tw[2]
				y5[q] = (a - b) * tw[4]
				y7[q] = (c + id) * tw[6]
			}
		}
	}
}

// stageRadix8Unit is stageRadix8 at s == 1 (the first pass of every
// radix-8-first plan) with the same operations in the same order, so the
// two agree bit for bit. Its butterflies touch single elements, where the
// 16 per-p slice preambles of the strided loop cost more than they save.
func stageRadix8Unit(st *stage, y, x []complex128) {
	m := st.m
	tw := st.tw[:7*m]
	x, y = x[:8*m], y[:8*m]
	for p := 0; p < m; p++ {
		u0, u1, u2, u3 := x[p], x[p+m], x[p+2*m], x[p+3*m]
		u4, u5, u6, u7 := x[p+4*m], x[p+5*m], x[p+6*m], x[p+7*m]
		a0, a1, a2, a3 := u0+u4, u1+u5, u2+u6, u3+u7
		b0 := u0 - u4
		b1 := u1 - u5
		b2 := u2 - u6
		b3 := u3 - u7
		b1 = complex(invSqrt2*(real(b1)+imag(b1)), invSqrt2*(imag(b1)-real(b1)))
		b2 = complex(imag(b2), -real(b2))
		b3 = complex(invSqrt2*(imag(b3)-real(b3)), -invSqrt2*(real(b3)+imag(b3)))
		w := tw[7*p : 7*p+7]
		y8 := y[8*p : 8*p+8]
		{
			a, c := a0+a2, a0-a2
			b, d := a1+a3, a1-a3
			id := mulByI(d)
			y8[0] = a + b
			y8[2] = (c - id) * w[1]
			y8[4] = (a - b) * w[3]
			y8[6] = (c + id) * w[5]
		}
		{
			a, c := b0+b2, b0-b2
			b, d := b1+b3, b1-b3
			id := mulByI(d)
			y8[1] = (a + b) * w[0]
			y8[3] = (c - id) * w[2]
			y8[5] = (a - b) * w[4]
			y8[7] = (c + id) * w[6]
		}
	}
}

// stageOdd runs the butterfly of an odd radix r in 5..13 in symmetric
// pairs. Legs j and r-j enter only as a_j = u_j + u_{r-j} and
// b_j = u_j - u_{r-j} (j in [1, h], h = r/2), so with c_jk = cos(2*pi*j*k/r)
// and s_jk = sin(2*pi*j*k/r) from stage.cs
//
//	y_0     = u_0 + sum_j a_j
//	y_k     = rho_k - i*iota_k,  y_{r-k} = rho_k + i*iota_k,
//	rho_k   = u_0 + sum_j c_jk*a_j,  iota_k = sum_j s_jk*b_j,
//
// each constant a real scale of both parts: 2h^2 real-by-complex products
// per butterfly where the r x r matrix DFT took (r-1)^2 complex ones. When
// m == 1 every stage twiddle is 1 and the multiply is skipped. The AVX2
// twin of that untwiddled pass at r = 7 (stageVec) repeats these operations
// in this order.
func stageOdd(st *stage, y, x []complex128) {
	xs := st.readStride()
	r, m, s := st.r, st.m, st.s
	h := r / 2
	cosT, sinT := st.cs[:h*h], st.cs[h*h:2*h*h]
	var a, b [maxRadix / 2]complex128
	for p := 0; p < m; p++ {
		var tw []complex128
		if m > 1 {
			tw = st.tw[p*(r-1) : p*(r-1)+r-1]
		}
		for q := 0; q < s; q++ {
			u0 := x[q+xs*p]
			y0 := u0
			for j := 1; j <= h; j++ {
				uj, ur := x[q+xs*(p+m*j)], x[q+xs*(p+m*(r-j))]
				a[j-1], b[j-1] = uj+ur, uj-ur
				y0 += a[j-1]
			}
			y[q+s*r*p] = y0
			for k := 1; k <= h; k++ {
				c, sn := cosT[(k-1)*h:k*h], sinT[(k-1)*h:k*h]
				rho := u0
				for j, aj := range a[:h] {
					rho += complex(c[j]*real(aj), c[j]*imag(aj))
				}
				iot := complex(sn[0]*real(b[0]), sn[0]*imag(b[0]))
				for j := 1; j < h; j++ {
					iot += complex(sn[j]*real(b[j]), sn[j]*imag(b[j]))
				}
				yk := complex(real(rho)+imag(iot), imag(rho)-real(iot))
				yr := complex(real(rho)-imag(iot), imag(rho)+real(iot))
				if tw != nil {
					yk *= tw[k-1]
					yr *= tw[r-k-1]
				}
				y[q+s*(r*p+k)] = yk
				y[q+s*(r*p+r-k)] = yr
			}
		}
	}
}
