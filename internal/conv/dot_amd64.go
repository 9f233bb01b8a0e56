package conv

import "soifft/internal/cpu"

// haveAVX2 selects dotRowsAVX2 over the portable dotReal. It is decided once,
// here; only tests assign it, to run the portable path on an AVX2 host.
var haveAVX2 = cpu.AVX2

//go:noescape
func dotRowsAVX2(out *complex128, taps *float64, win *complex128, rows, b int)

// dotRows sets sums[a] to the real-weighted sum of win under row a of a
// lane's taps, for the len(sums) rows that start at taps[0] (LaneTaps
// layout) and dup[0] (LaneTapsDup layout): one kernel call for all of them,
// or dotReal row by row. The two agree bit for bit. The reslices are the
// kernel's bounds checks: it reads exactly dup[:2*rows*b] and win[:b].
func dotRows(sums []complex128, taps, dup []float64, win []complex128) {
	if !haveAVX2 {
		dotRowsGo(sums, taps, win)
		return
	}
	dup = dup[:2*len(sums)*len(win)]
	dotRowsAVX2(&sums[0], &dup[0], &win[0], len(sums), len(win))
}
