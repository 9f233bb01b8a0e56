package conv

import (
	"math"
	"math/rand"
	"testing"

	"soifft/internal/cpu"
)

// kernels names the convolution kernels the host can execute: the AVX2 one,
// when the processor has it, and the portable one.
func kernels() []string {
	if cpu.AVX2 {
		return []string{"avx2", "portable"}
	}
	return []string{"portable"}
}

// useKernel makes the named kernel the one dotRows runs and returns the
// function that puts the host's own choice back. It is the only place that
// assigns haveAVX2.
func useKernel(name string) (restore func()) {
	host := haveAVX2
	haveAVX2 = name == "avx2"
	return func() { haveAVX2 = host }
}

// checkDotRows runs both kernels on one set of operands, row a stored at
// out[a*stride], and requires equal bits (equal NaN-ness where a result is
// NaN), and that the kernel wrote its rows outputs and nothing between or
// after them.
func checkDotRows(t *testing.T, rows, b, off, stride int, draw func() float64, phase []complex128) {
	t.Helper()
	taps, dup, win := dotOperands(rows, b, off, draw)
	n := (rows-1)*stride + 1
	want := make([]complex128, n)
	dotRowsGo(want, stride, taps, win, phase)
	const guard = 0x5a5a
	gotBuf := make([]complex128, n+stride)
	for i := range gotBuf {
		gotBuf[i] = guard
	}
	dotRows(gotBuf[:n], stride, taps, dup, win, phase)
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	}
	for i, g := range gotBuf {
		if i >= n || i%stride != 0 {
			if g != guard {
				t.Fatalf("rows=%d B=%d off=%d stride=%d: kernel wrote element %d, no row's output", rows, b, off, stride, i)
			}
			continue
		}
		if w := want[i]; !same(real(g), real(w)) || !same(imag(g), imag(w)) {
			t.Fatalf("rows=%d B=%d off=%d stride=%d row %d: kernel %v (%x, %x), Go %v (%x, %x)", rows, b, off, stride, i/stride,
				g, math.Float64bits(real(g)), math.Float64bits(imag(g)),
				w, math.Float64bits(real(w)), math.Float64bits(imag(w)))
		}
	}
}

func needAVX2(t *testing.T) {
	if !haveAVX2 {
		t.Skip("processor or OS without AVX2: the portable kernel is the only one")
	}
}

// TestDotRowsBitIdentical pins dotRowsAVX2 to dotRowsGo bit for bit over
// every width through 96 (all tail lengths, zero to 24 groups of four), 1 to
// 17 rows (zero to four blocks of four, zero to three single rows), eight
// window offsets and the output strides of both layouts (1 for ApplyTile's
// lane-major tile, S = 8 for Apply's rows), on random data, the rotation by
// random unit phases and by phases with ±0, ±1, ±i and denormal parts.
func TestDotRowsBitIdentical(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(22))
	for b := 1; b <= 96; b++ {
		for rows := 1; rows <= 17; rows++ {
			for off := 0; off < 8; off++ {
				for _, stride := range []int{1, 8} {
					phase := phases(rows, rng, off%2 == 1)
					checkDotRows(t, rows, b, off, stride, rng.NormFloat64, phase)
				}
			}
		}
	}
}

// TestDotRowsSpecialValues repeats the comparison with signed zeros,
// denormals, magnitudes whose products overflow and underflow, infinities and
// NaN mixed into the operands: same bits, and NaN exactly where dotRowsGo has
// NaN. No sentinel may leak: a row without a NaN input, an infinity or an
// overflow must stay finite, which dotRowsGo's answer already decides.
func TestDotRowsSpecialValues(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(23))
	special := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, 1e-300, -1e-300, 1e300, -1e300,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for _, frac := range []float64{0.02, 0.3, 1} { // share of operands drawn from special
		draw := func() float64 {
			if rng.Float64() < frac {
				return special[rng.Intn(len(special))]
			}
			return rng.NormFloat64()
		}
		for iter := 0; iter < 40; iter++ {
			for b := 1; b <= 96; b += 1 + rng.Intn(3) {
				rows := 1 + rng.Intn(9)
				checkDotRows(t, rows, b, rng.Intn(8), 1+rng.Intn(8), draw, phases(rows, rng, true))
			}
		}
	}
	// All-finite, exactly representable operands and phases ±1, ±i: the
	// results are exact, so a sentinel or a misplaced tap or phase shows as a
	// wrong integer, not a rounding.
	ints := func() float64 { return float64(rng.Intn(17) - 8) }
	quarter := []complex128{1, -1, 1i, -1i}
	for b := 1; b <= 96; b++ {
		rows := 1 + rng.Intn(9)
		phase := phases(rows, rng, false)
		for a := range phase {
			phase[a] = quarter[rng.Intn(4)]
		}
		checkDotRows(t, rows, b, rng.Intn(8), 1+rng.Intn(8), ints, phase)
	}
}

// TestGatherLanesMatchesGo pins the AVX2 lane gather to gatherLanesGo bit for
// bit over lane counts odd and even (an odd count runs the Go loop, an odd
// input count ends in it), 1 to 40 inputs per lane and a staging stride equal
// to the input count and wider. x is NaN-filled past its l*s inputs and the
// staging buffer sentinel-filled, so that a read past x's inputs or a write
// outside the lanes' runs fails.
func TestGatherLanesMatchesGo(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(30))
	nan := complex(math.NaN(), math.NaN())
	const guard = complex(0x5a5a, -0x5a5a)
	for _, s := range []int{2, 3, 4, 8, 16, 64} {
		for l := 1; l <= 40; l++ {
			for _, sl := range []int{l, l + 5} {
				xBuf := make([]complex128, l*s+2*s)
				for i := range xBuf {
					xBuf[i] = nan
				}
				x := xBuf[:l*s]
				for i := range x {
					x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				want := make([]complex128, s*sl+1)
				got := make([]complex128, s*sl+1)
				for i := range got {
					want[i], got[i] = guard, guard
				}
				gatherLanesGo(want, sl, xBuf, s, 0, l)
				gatherLanes(got, sl, xBuf, s, l)
				for i := range got {
					if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
						math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
						t.Fatalf("s=%d l=%d sl=%d: stage[%d] = %v, Go %v", s, l, sl, i, got[i], want[i])
					}
				}
			}
		}
	}
}
