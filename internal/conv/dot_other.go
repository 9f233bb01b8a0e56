//go:build !amd64

package conv

// dotRows sets sums[a] to the real-weighted sum of win under row a of a
// lane's taps (LaneTaps layout), by dotReal; the duplicated table is the
// amd64 vector kernel's operand and is not read here.
func dotRows(sums []complex128, taps, _ []float64, win []complex128) {
	dotRowsGo(sums, taps, win)
}
