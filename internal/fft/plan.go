// Package fft is a from-scratch, stdlib-only FFT library for
// double-precision complex data. It provides:
//
//   - Plan: a reusable, goroutine-safe transform plan for any length n,
//     using a mixed-radix Stockham autosort kernel for smooth sizes
//     (radices 2, 3, 4 and 8, and 5, 7, 11 and 13 through one
//     symmetric-pair butterfly) and Bluestein's chirp-z algorithm
//     otherwise;
//   - Batch: many independent transforms of the same length, optionally
//     strided, optionally executed by a worker pool (the paper's
//     "I_m (x) F_p is naturally parallel");
//   - SixStep: the large-1D-FFT variants of Section 5.2 of the paper
//     (Bailey's 6-step algorithm, naive and bandwidth-optimized, the first
//     two steps of the Fig. 10 ablation), with an optional fused
//     demodulation pass.
//
// Every engine works on interleaved []complex128, with one Go kernel source
// per radix (one for the odd radices 5 to 13); on amd64 hosts with AVX2 the
// radix-2, -4 and -8 stages, radix 7's untwiddled last pass, the 8-point
// codelet, the six-step's twiddle and demodulation products and
// ForwardDemodulate's fused last radix-2 pass run as Go-assembler twins
// (stockham_amd64.s) that agree with the Go kernels bit for bit. Forward
// transforms are unnormalized; Inverse applies the 1/n factor, so
// Inverse(Forward(x)) == x.
package fft

import (
	"fmt"
	"sync"
	"unsafe"
)

// maxRadix is the largest prime factor handled by the mixed-radix
// kernel; anything larger routes the whole transform through Bluestein.
const maxRadix = 13

// Plan holds precomputed twiddle factors and dispatch information for
// transforms of one fixed length. A Plan is safe for concurrent use; each
// call draws scratch space from an internal pool.
type Plan struct {
	n      int
	stages []stage    // mixed-radix schedule (nil when blue != nil or n <= 2)
	blue   *bluestein // chirp-z fallback for rough sizes
	work   sync.Pool
}

// stage describes one Stockham pass: the current sub-transform length is
// r*m, processed at stride s, with twiddle table tw[p*(r-1)+(t-1)] =
// exp(-2*pi*i*p*t/(r*m)) and, for the odd radices 5 to 13, the pair
// constants cs of stageOdd.
type stage struct {
	r, m, s int
	// rs is the row stride the stage reads its input at (readStride); zero,
	// its value in every plan's own schedule, means s.
	rs int
	tw []complex128
	// cs holds, for r >= 5 and h = r/2, cos(2*pi*j*k/r) at
	// cs[(k-1)*h+(j-1)] and sin(2*pi*j*k/r) at cs[h*h+(k-1)*h+(j-1)], for
	// output pair k and leg pair j in [1, h] (oddConstants); nil otherwise.
	cs []float64
	// twv is tw laid out for the unit-stride radix-8 vector kernel, which
	// takes butterflies p and p+1 together: for each such pair and t in
	// [0, 7), the real parts [wr_p, wr_p, wr_p+1, wr_p+1] then the imaginary
	// parts likewise, the same values as tw. Built only for r == 8, s == 1
	// and even m.
	twv []float64
}

// NewPlan creates a transform plan for length n (n >= 1).
func NewPlan(n int) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("fft: invalid transform length %d", n)
	}
	p := &Plan{n: n}
	poolVectors(&p.work, n)
	if n <= 2 {
		return p, nil
	}
	radices, smooth := factorize(n)
	if !smooth {
		b, err := newBluestein(n)
		if err != nil {
			return nil, err
		}
		p.blue = b
		return p, nil
	}
	p.stages = buildStages(n, 1, radices)
	return p, nil
}

// poolVectors arms p to hand out *[]complex128 scratch of length n, the one
// shape every pool in this package holds.
func poolVectors(p *sync.Pool, n int) {
	p.New = func() any {
		b := make([]complex128, n)
		return &b
	}
}

// MustPlan is NewPlan that panics on error, for tests and internal use with
// lengths known to be valid.
func MustPlan(n int) *Plan {
	p, err := NewPlan(n)
	if err != nil {
		panic(err)
	}
	return p
}

// N returns the transform length.
func (p *Plan) N() int { return p.n }

// factorize splits n into the radix schedule used by the Stockham kernel.
// Powers of two are emitted as radix-8 passes while at least three factors
// of two remain, then one radix-4 or one radix-2 pass: the specialized
// high-radix butterflies cut the number of passes over memory to ~log8(n) —
// the same motivation as the paper's radix-8/16 register blocking (Section
// 5.2.4). A Plan and a LaneBatch of the same length get the same schedule.
//
// Returns smooth=false when n has a prime factor > maxRadix.
func factorize(n int) (radices []int, smooth bool) {
	e2 := 0
	for n%2 == 0 {
		e2++
		n /= 2
	}
	for ; e2 >= 3; e2 -= 3 {
		radices = append(radices, 8) // plan-time factorization, O(log n) appends
	}
	switch e2 {
	case 2:
		radices = append(radices, 4)
	case 1:
		radices = append(radices, 2)
	}
	for _, r := range []int{3, 5, 7, 11, 13} {
		for n%r == 0 {
			radices = append(radices, r) // plan-time factorization, O(log n) appends
			n /= r
		}
	}
	return radices, n == 1
}

// buildStages precomputes the per-stage twiddle tables for the forward
// direction, the first stage at stride strideMul. The inverse direction
// reuses them via the conjugation identity IFFT(x) = conj(FFT(conj(x)))/n.
func buildStages(n, strideMul int, radices []int) []stage {
	stages := make([]stage, 0, len(radices))
	cur := n
	s := strideMul
	for _, r := range radices {
		m := cur / r
		st := stage{r: r, m: m, s: s}
		st.tw = make([]complex128, m*(r-1))
		for pi := 0; pi < m; pi++ {
			for t := 1; t < r; t++ {
				st.tw[pi*(r-1)+(t-1)] = twiddle(Forward, pi*t, cur)
			}
		}
		if r == 8 && s == 1 && m%2 == 0 {
			st.twv = pairTwiddles(st.tw, m)
		}
		if r >= 5 && r%2 != 0 {
			st.cs = oddConstants(r)
		}
		stages = append(stages, st)
		cur = m
		s *= r
	}
	return stages
}

// oddConstants returns the stage.cs table of an odd radix r, read off
// W_r^{jk} = cos(2*pi*j*k/r) - i*sin(2*pi*j*k/r).
func oddConstants(r int) []float64 {
	h := r / 2
	cs := make([]float64, 2*h*h)
	for k := 1; k <= h; k++ {
		for j := 1; j <= h; j++ {
			w := twiddle(Forward, j*k, r)
			cs[(k-1)*h+(j-1)] = real(w)
			cs[h*h+(k-1)*h+(j-1)] = -imag(w)
		}
	}
	return cs
}

// pairTwiddles lays out a radix-8 stage's table tw (m even) as stage.twv.
func pairTwiddles(tw []complex128, m int) []float64 {
	twv := make([]float64, 28*m)
	for p := 0; p < m; p += 2 {
		for t := 0; t < 7; t++ {
			v := twv[(p/2*7+t)*8:][:8]
			w0, w1 := tw[p*7+t], tw[(p+1)*7+t]
			v[0], v[1], v[2], v[3] = real(w0), real(w0), real(w1), real(w1)
			v[4], v[5], v[6], v[7] = imag(w0), imag(w0), imag(w1), imag(w1)
		}
	}
	return twv
}

// Transform computes the DFT of src into dst. dst and src must both have
// length >= p.N(); dst may alias src (in-place). Forward is unnormalized;
// Inverse applies the 1/n scaling.
func (p *Plan) Transform(dst, src []complex128, dir Direction) {
	n := p.n
	if len(dst) < n || len(src) < n {
		panic(fmt.Sprintf("fft: Transform buffers too short: len(dst)=%d len(src)=%d n=%d", len(dst), len(src), n))
	}
	dst, src = dst[:n], src[:n]
	switch {
	case n == 1:
		dst[0] = src[0]
	case n == 2:
		a, b := src[0], src[1]
		dst[0], dst[1] = a+b, a-b
		if dir == Inverse {
			dst[0] *= 0.5
			dst[1] *= 0.5
		}
	case n <= 16 && (n == 4 || n == 8 || n == 16):
		// Fully unrolled codelets for the hot tiny sizes (the F_P stage of
		// the SOI factorization runs these by the millions).
		if dir == Forward {
			codeletForward(dst, src, n)
			return
		}
		var tmp [16]complex128
		for i := 0; i < n; i++ {
			v := src[i]
			tmp[i] = complex(real(v), -imag(v))
		}
		codeletForward(dst, tmp[:n], n)
		inv := 1 / float64(n)
		for i := 0; i < n; i++ {
			dst[i] = complex(real(dst[i])*inv, -imag(dst[i])*inv)
		}
	case p.blue != nil:
		p.blue.transform(dst, src, dir)
	default:
		p.stockham(dst, src, dir)
	}
}

// Forward computes the unnormalized forward DFT of src into dst.
func (p *Plan) Forward(dst, src []complex128) { p.Transform(dst, src, Forward) }

// Inverse computes the normalized (1/n) inverse DFT of src into dst.
func (p *Plan) Inverse(dst, src []complex128) { p.Transform(dst, src, Inverse) }

// demodulate sets dst[k] = x[k] * d[k] for k in [0, len(dst)): the
// pointwise product by W^-1 that SixStep fuses into its last pass
// (SetDemod), for a spectrum a plain Plan computed; a dst shorter than x is
// the projection onto its first len(dst) bins. x and d must be at least as
// long as dst; dst may alias x.
func demodulate(dst, x, d []complex128) {
	n := len(dst)
	x, d = x[:n], d[:n]
	for k := range dst {
		dst[k] = x[k] * d[k]
	}
}

// ForwardDemodulate sets dst[k] = X[k] * d[k] for k in [0, len(dst)), X the
// forward DFT of src: Forward into scratch followed by demodulate, bit for
// bit. Where the plan's last pass is radix 2 (the powers of two 2^(3j+1)
// from 2^7 up, such as a 2^16 = 8^5*2 SOI segment) and dst holds at least
// the first half of the spectrum, the passes before it run between src and
// scratch, and it stores its butterflies times d straight into dst: the
// spectrum is never written out and read back, and the working set is the
// caller's three vectors. src is overwritten there. len(dst) <= N; src and
// scratch must have length >= N and overlap neither each other nor dst; d
// must be at least as long as dst.
func (p *Plan) ForwardDemodulate(dst, src, scratch, d []complex128) {
	n := p.n
	if len(src) < n || len(scratch) < n || len(dst) > n {
		panic(fmt.Sprintf("fft: ForwardDemodulate buffers: len(dst)=%d len(src)=%d len(scratch)=%d n=%d", len(dst), len(src), len(scratch), n))
	}
	last := len(p.stages) - 1
	if last < 1 || p.stages[last].r != 2 || len(dst) < n/2 {
		p.Forward(scratch, src)
		demodulate(dst, scratch, d)
		return
	}
	// The passes before the last alternate between scratch and src, landing
	// in whichever of the two the parity of their count makes the last
	// written (runStages); the plan's pooled vector is not touched.
	x, w := scratch[:n], src[:n]
	if last%2 == 0 {
		x, w = w, x
	}
	runStages(p.stages[:last], x, src[:n], w, 1)
	radix2Demodulate(dst, x, p.stages[last].tw[0], d[:len(dst)])
}

// radix2Demodulate is the last pass of ForwardDemodulate: the radix-2
// butterflies of a last stage (m = 1) over x, s = len(x)/2 apart, their
// outputs y[q] = a + b and y[q+s] = (a - b) * w multiplied by d into dst,
// for the outputs below len(dst) >= s.
func radix2Demodulate(dst, x []complex128, w complex128, d []complex128) {
	s := len(x) / 2
	both := len(dst) - s // q below it has both outputs in dst
	for q := radix2DemodulateVec(dst, x, w, d); q < s; q++ {
		a, b := x[q], x[q+s]
		dst[q] = (a + b) * d[q]
		if q < both {
			dst[q+s] = ((a - b) * w) * d[q+s]
		}
	}
}

// ForwardCols computes the forward DFT of each of the first rows columns of
// the N-by-xs matrix x, column r being x[k*xs + r] for k in [0, N), and stores
// bin f of column r at y[f*ys + r]: the Segments-point transforms of a
// lane-major convolution tile written straight into the segment vectors
// (paper Section 5.2.4, "ffts in strides of P"). The columns agree bit for
// bit with Forward on each: at N = 8 they go two at a time through the
// vector codelet, elsewhere one at a time through Transform. y must not
// overlap x.
func (p *Plan) ForwardCols(y []complex128, ys int, x []complex128, xs, rows int) {
	n := p.n
	if rows <= 0 {
		return
	}
	if xs < rows || ys < rows {
		panic(fmt.Sprintf("fft: ForwardCols strides %d, %d below %d rows", xs, ys, rows))
	}
	done := 0
	if n == 8 {
		done = dft8ColsVec(y, ys, x, xs, rows)
	}
	if done == rows {
		return
	}
	wp := p.work.Get().(*[]complex128)
	defer p.work.Put(wp)
	col := *wp
	for r := done; r < rows; r++ {
		for k := range col {
			col[k] = x[k*xs+r]
		}
		p.Transform(col, col, Forward)
		for f, v := range col {
			y[f*ys+r] = v
		}
	}
}

// stockham runs the mixed-radix autosort pipeline. The two ping-pong buffers
// are dst and a pooled scratch vector (runStages), so the last pass always
// lands in dst, with no final copy (one fewer memory sweep — the kind of
// accounting Section 5.2 of the paper is about). The first pass reads src
// in place; only an inverse (which conjugates its input first) or an odd
// stage count over an src that dst overlaps stages a copy.
func (p *Plan) stockham(dst, src []complex128, dir Direction) {
	wp := p.work.Get().(*[]complex128)
	defer p.work.Put(wp)
	w := *wp

	odd := len(p.stages)%2 != 0
	x := src
	switch {
	case dir == Inverse:
		// The first pass writes dst when the count is odd, w when even.
		x = dst
		if odd {
			x = w
		}
		for i, v := range src {
			x[i] = complex(real(v), -imag(v))
		}
	case odd && overlaps(dst, src):
		x = w
		copy(x, src)
	}
	runStages(p.stages, dst, x, w, 1)
	if dir == Inverse {
		inv := 1 / float64(p.n)
		for i, v := range dst {
			dst[i] = complex(real(v)*inv, -imag(v)*inv)
		}
	}
}

// readStride returns the row stride the stage reads its input at.
func (st *stage) readStride() int {
	if st.rs == 0 {
		return st.s
	}
	return st.rs
}

// runStages runs the Stockham passes from src into dst, alternating between
// dst and the scratch vector w so that the last pass lands in dst: the first
// pass writes dst when the count is odd, w when it is even. The first pass
// reads src at row stride rs, every later one the previous output at its own
// stride. src may be the buffer the first pass does not write (w for an odd
// count, dst for an even one); otherwise it must overlap neither.
func runStages(stages []stage, dst, src, w []complex128, rs int) {
	y, z := dst, w
	if len(stages)%2 == 0 {
		y, z = w, dst
	}
	x := src
	for i := range stages {
		st := &stages[i]
		if i == 0 && rs != st.s {
			first := *st
			first.rs = rs
			st = &first
		}
		runStage(st, y, x)
		x, y, z = y, z, y
	}
}

// runStage executes one Stockham pass, y <- butterfly(x), with the vector
// kernel when there is one and the Go twin otherwise.
func runStage(st *stage, y, x []complex128) {
	if stageVec(st, y, x) {
		return
	}
	switch st.r {
	case 2:
		stageRadix2(st, y, x)
	case 3:
		stageRadix3(st, y, x)
	case 4:
		stageRadix4(st, y, x)
	case 8:
		if st.s == 1 && st.readStride() == 1 {
			stageRadix8Unit(st, y, x)
		} else {
			stageRadix8(st, y, x)
		}
	default:
		stageOdd(st, y, x)
	}
}

// overlaps reports whether a and b share any element.
func overlaps(a, b []complex128) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	const size = unsafe.Sizeof(complex128(0))
	pa, pb := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return pa < pb+uintptr(len(b))*size && pb < pa+uintptr(len(a))*size
}
