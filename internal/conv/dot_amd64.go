package conv

import "soifft/internal/cpu"

// haveAVX2 selects dotRowsAVX2 over the portable dotReal. It is decided once,
// here; only tests assign it, to run the portable path on an AVX2 host.
var haveAVX2 = cpu.AVX2

//go:noescape
func dotRowsAVX2(out *complex128, taps *float64, win, phase *complex128, rows, b, stride int)

//go:noescape
func gatherLanesAVX2(stage *complex128, sl int, x *complex128, s, pairs int)

// dotRows sets out[a*stride], for each of the len(phase) rows that start at
// taps[0] (LaneTaps layout) and dup[0] (LaneTapsDup layout), to the
// real-weighted sum of win under row a rotated by phase[a]: one kernel call
// for all of them, or dotRowsGo. The two agree bit for bit. The reslices are
// the kernel's bounds checks: it reads exactly dup[:2*rows*b], win[:b] and
// phase[:rows], and writes out[a*stride] for a < rows.
func dotRows(out []complex128, stride int, taps, dup []float64, win, phase []complex128) {
	if !haveAVX2 {
		dotRowsGo(out, stride, taps, win, phase)
		return
	}
	rows := len(phase)
	out = out[:(rows-1)*stride+1]
	dup = dup[:2*rows*len(win)]
	dotRowsAVX2(&out[0], &dup[0], &win[0], &phase[0], rows, len(win), stride)
}

// gatherLanes sets stage[j*sl + i] = x[i*s + j] for the first l inputs of
// each of the s lanes of x: gatherLanesGo, or on an even lane count the
// kernel for the leading even number of inputs and gatherLanesGo for an odd
// last one. The reslices are the kernel's bounds checks: it reads
// x[:2*pairs*s] and writes 2*pairs elements from each stage[j*sl].
func gatherLanes(stage []complex128, sl int, x []complex128, s, l int) {
	pairs := l / 2
	if !haveAVX2 || s%2 != 0 || pairs == 0 {
		gatherLanesGo(stage, sl, x, s, 0, l)
		return
	}
	st, xp := stage[:(s-1)*sl+2*pairs], x[:2*pairs*s]
	gatherLanesAVX2(&st[0], sl, &xp[0], s, pairs)
	gatherLanesGo(stage, sl, x, s, 2*pairs, l)
}
