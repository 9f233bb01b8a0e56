//go:build !amd64

package conv

// dotRows sets out[c*ostep + a*stride], for each of n windows c and each of
// the len(phase) rows a, to the real-weighted sum of window c of lane under
// row a of a lane's taps (LaneTaps layout) rotated by phase[a], by dotRowsGo;
// the duplicated table is the amd64 vector kernel's operand and is not read
// here.
func dotRows(out []complex128, stride, ostep int, taps, _ []float64, lane []complex128, wstep, n int, phase []complex128) {
	dotRowsGo(out, stride, ostep, taps, lane, wstep, n, phase)
}

// gatherLanes sets stage[j*sl + i] = x[i*s + j] for the first l inputs of
// each of the s lanes of x, by gatherLanesGo.
func gatherLanes(stage []complex128, sl int, x []complex128, s, l int) {
	gatherLanesGo(stage, sl, x, s, 0, l)
}
