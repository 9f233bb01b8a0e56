package conv

import "soifft/internal/cpu"

// haveFMA selects the kernels of dot_amd64.s, dotRowsFMA and gatherLanesAVX2,
// over the portable Go: they run where the processor has both AVX2 and FMA.
// haveAVX512 further selects dotRowsAVX512 for the blocks of four rows by
// four windows, where the processor also has AVX-512F. They are decided
// once, here; only tests assign them, to run the other kernels on such a
// host.
var (
	haveFMA    = cpu.AVX2 && cpu.FMA
	haveAVX512 = haveFMA && cpu.AVX512F
)

//go:noescape
func dotRowsFMA(out *complex128, taps *float64, lane, phase *complex128, rows, b, stride, wins, wstep, ostep int)

//go:noescape
func dotRowsAVX512(out *complex128, taps *float64, lane, phase *complex128, rows, b, stride, wins, wstep, ostep int)

//go:noescape
func gatherLanesAVX2(stage *complex128, sl int, x *complex128, s, pairs int)

// dotRows sets out[c*ostep + a*stride], for each of n >= 1 windows c and each
// of the len(phase) rows a, to the real-weighted sum of window c — the
// b = len(taps)/len(phase) elements from lane[c*wstep] — under row a of the
// taps, rotated by phase[a]. taps holds the rows in LaneTaps layout, dup the
// same rows in LaneTapsDup layout. Where the processor has AVX-512F,
// dotRowsAVX512 computes the leading rows &^ 3 rows of the leading n &^ 3
// windows, and dotRowsFMA the rest; elsewhere it is one dotRowsFMA call for
// all windows and rows, or dotRowsGo. The two vector kernels give the same
// bits, the Go one differs in rounding (package doc). The reslices are the
// kernels' bounds checks: they read exactly dup[:2*rows*b],
// lane[:(n-1)*wstep+b] and phase[:rows], and write out[c*ostep + a*stride].
func dotRows(out []complex128, stride, ostep int, taps, dup []float64, lane []complex128, wstep, n int, phase []complex128) {
	if !haveFMA {
		dotRowsGo(out, stride, ostep, taps, lane, wstep, n, phase)
		return
	}
	rows := len(phase)
	b := len(taps) / rows
	out = out[:(n-1)*ostep+(rows-1)*stride+1]
	dup = dup[:2*rows*b]
	lane = lane[:(n-1)*wstep+b]
	r4, n4 := rows&^3, n&^3
	if !haveAVX512 || r4 == 0 || n4 == 0 {
		dotRowsFMA(&out[0], &dup[0], &lane[0], &phase[0], rows, b, stride, n, wstep, ostep)
		return
	}
	dotRowsAVX512(&out[0], &dup[0], &lane[0], &phase[0], r4, b, stride, n4, wstep, ostep)
	if r4 < rows {
		dotRowsFMA(&out[r4*stride], &dup[2*r4*b], &lane[0], &phase[r4], rows-r4, b, stride, n4, wstep, ostep)
	}
	if n4 < n {
		dotRowsFMA(&out[n4*ostep], &dup[0], &lane[n4*wstep], &phase[0], rows, b, stride, n-n4, wstep, ostep)
	}
}

// gatherLanes sets stage[j*sl + i] = x[i*s + j] for the first l inputs of
// each of the s lanes of x: gatherLanesGo, or on an even lane count the
// kernel for the leading even number of inputs and gatherLanesGo for an odd
// last one. The reslices are the kernel's bounds checks: it reads
// x[:2*pairs*s] and writes 2*pairs elements from each stage[j*sl].
func gatherLanes(stage []complex128, sl int, x []complex128, s, l int) {
	pairs := l / 2
	if !haveFMA || s%2 != 0 || pairs == 0 {
		gatherLanesGo(stage, sl, x, s, 0, l)
		return
	}
	st, xp := stage[:(s-1)*sl+2*pairs], x[:2*pairs*s]
	gatherLanesAVX2(&st[0], sl, &xp[0], s, pairs)
	gatherLanesGo(stage, sl, x, s, 2*pairs, l)
}
