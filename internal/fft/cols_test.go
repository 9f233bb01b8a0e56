package fft

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestForwardColsMatchesForward pins ForwardCols to Forward on each column,
// bit for bit (NaN payloads aside): the codelet sizes, the 8-point vector
// codelet's pairs and odd last column, Stockham plans and the odd
// radices, at column counts odd and even, at an input row stride equal to
// the count and wider, on random operands and on operands mixed with ±0,
// ±Inf, NaN and denormals. The operands sit in a NaN-filled matrix, so a
// read of a column past the last or of a gap fails; each bin's run is its
// own sentinel-guarded allocation, so the eight-pointer stores of the vector
// codelet must each land in their own run, and the margins must stay
// untouched; the input must stay unchanged.
func TestForwardColsMatchesForward(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(30))
		for _, n := range []int{2, 3, 4, 5, 7, 8, 12, 16, 64} {
			p := MustPlan(n)
			for _, rows := range []int{1, 2, 3, 8, 17} {
				for _, xs := range []int{rows, rows + 3} {
					for _, specials := range []bool{false, true} {
						what := fmt.Sprintf("n=%d rows=%d xs=%d specials=%v", n, rows, xs, specials)
						checkCols(t, what, p, rows, xs, operandDraw(rng, specials))
					}
				}
			}
		}
	})
}

func checkCols(t *testing.T, what string, p *Plan, rows, xs int, draw func() float64) {
	t.Helper()
	n := p.N()
	x := carve((n-1)*xs+rows, nil)
	for k := 0; k < n; k++ {
		for r := 0; r < rows; r++ {
			x[k*xs+r] = complex(draw(), draw())
		}
	}
	keep := append([]complex128(nil), x...)
	y := make([][]complex128, n)
	intact := make([]func() bool, n)
	for f := range y {
		y[f], intact[f] = guarded(rows)
	}
	p.ForwardCols(y, x, xs, rows)
	for f := range y {
		if !intact[f]() {
			t.Fatalf("%s: wrote outside bin %d's run", what, f)
		}
	}
	if i := firstBitDiff(nanless(x), nanless(keep)); i >= 0 {
		t.Fatalf("%s: x[%d] changed", what, i)
	}
	col, want, got := make([]complex128, n), make([]complex128, n), make([]complex128, n)
	for r := 0; r < rows; r++ {
		for k := range col {
			col[k] = x[k*xs+r]
		}
		p.Forward(want, col)
		for f := range got {
			got[f] = y[f][r]
		}
		sameBits(t, fmt.Sprintf("%s column %d", what, r), got, want)
	}
}
