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

// checkDotRows runs both kernels on one set of operands and requires equal
// bits (equal NaN-ness where a sum is NaN), and that the kernel wrote its
// rows sums and nothing after them.
func checkDotRows(t *testing.T, rows, b, off int, draw func() float64) {
	t.Helper()
	taps, dup, win := dotOperands(rows, b, off, draw)
	want := make([]complex128, rows)
	dotRowsGo(want, taps, win)
	const guard = 0x5a5a
	gotBuf := make([]complex128, rows+1)
	gotBuf[rows] = guard
	dotRows(gotBuf[:rows], taps, dup, win)
	if gotBuf[rows] != guard {
		t.Fatalf("rows=%d B=%d off=%d: kernel wrote past its %d sums", rows, b, off, rows)
	}
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	}
	for a, w := range want {
		if g := gotBuf[a]; !same(real(g), real(w)) || !same(imag(g), imag(w)) {
			t.Fatalf("rows=%d B=%d off=%d row %d: kernel %v (%x, %x), dotReal %v (%x, %x)", rows, b, off, a,
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

// TestDotRowsBitIdentical pins dotRowsAVX2 to dotReal bit for bit over every
// width through 96 (all tail lengths, zero to 24 groups of four), 1 to 17 rows
// (zero to four blocks of four, zero to three single rows, one more than a
// rowGroup) and eight window offsets, on random data.
func TestDotRowsBitIdentical(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(22))
	for b := 1; b <= 96; b++ {
		for rows := 1; rows <= rowGroup+1; rows++ {
			for off := 0; off < 8; off++ {
				checkDotRows(t, rows, b, off, rng.NormFloat64)
			}
		}
	}
}

// TestDotRowsSpecialValues repeats the comparison with signed zeros,
// denormals, magnitudes whose products overflow and underflow, infinities and
// NaN mixed into the operands: same bits, and NaN exactly where dotReal has
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
				checkDotRows(t, 1+rng.Intn(9), b, rng.Intn(8), draw)
			}
		}
	}
	// All-finite, exactly representable operands: the sums are exact, so a
	// sentinel or a misplaced tap shows as a wrong integer, not a rounding.
	ints := func() float64 { return float64(rng.Intn(17) - 8) }
	for b := 1; b <= 96; b++ {
		checkDotRows(t, 1+rng.Intn(9), b, rng.Intn(8), ints)
	}
}
