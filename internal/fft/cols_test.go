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
// the count and wider, and at an output stride far wider, on random operands
// and on operands mixed with ±0, ±Inf, NaN and denormals. The operands sit
// in a NaN-filled matrix, so a read of a column past the last or of a gap
// fails; the outputs sit in a sentinel-filled one whose gaps and margins
// must stay untouched; the input must stay unchanged.
func TestForwardColsMatchesForward(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(30))
		for _, n := range []int{2, 3, 4, 5, 7, 8, 12, 16, 64} {
			p := MustPlan(n)
			for _, rows := range []int{1, 2, 3, 8, 17} {
				for _, xs := range []int{rows, rows + 3} {
					for _, specials := range []bool{false, true} {
						what := fmt.Sprintf("n=%d rows=%d xs=%d specials=%v", n, rows, xs, specials)
						checkCols(t, what, p, rows, xs, 8*rows+261, operandDraw(rng, specials))
					}
				}
			}
		}
	})
}

func checkCols(t *testing.T, what string, p *Plan, rows, xs, ys int, draw func() float64) {
	t.Helper()
	n := p.N()
	x := carve((n-1)*xs+rows, nil)
	for k := 0; k < n; k++ {
		for r := 0; r < rows; r++ {
			x[k*xs+r] = complex(draw(), draw())
		}
	}
	keep := append([]complex128(nil), x...)
	y, intact := guarded((n-1)*ys + rows)
	sentinel := y[0]
	p.ForwardCols(y, ys, x, xs, rows)
	if !intact() {
		t.Fatalf("%s: wrote outside y", what)
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
			got[f] = y[f*ys+r]
		}
		sameBits(t, fmt.Sprintf("%s column %d", what, r), got, want)
	}
	for i, v := range y {
		if i%ys >= rows && v != sentinel {
			t.Fatalf("%s: wrote y[%d], in the gap after bin %d's run", what, i, i/ys)
		}
	}
}
