//go:build !amd64

package conv

// dotRows sets out[a*stride] to the real-weighted sum of win under row a of
// a lane's taps (LaneTaps layout) rotated by phase[a], by dotRowsGo; the
// duplicated table is the amd64 vector kernel's operand and is not read here.
func dotRows(out []complex128, stride int, taps, _ []float64, win, phase []complex128) {
	dotRowsGo(out, stride, taps, win, phase)
}

// gatherLanes sets stage[j*sl + i] = x[i*s + j] for the first l inputs of
// each of the s lanes of x, by gatherLanesGo.
func gatherLanes(stage []complex128, sl int, x []complex128, s, l int) {
	gatherLanesGo(stage, sl, x, s, 0, l)
}
