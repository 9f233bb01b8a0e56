package fft

import (
	"math"
	"math/rand"
	"testing"
)

// TestHostKernels logs the stage kernels this host runs, so that a test log
// says whether the 512-bit radix-8 stage was exercised, and requires the
// production choice to be the first of them, the fastest.
func TestHostKernels(t *testing.T) {
	ks := kernels()
	t.Logf("Stockham stage kernels this host runs: %v; the plans use %s", ks, kernelInUse())
	if kernelInUse() != ks[0] {
		t.Errorf("the plans use %s, not the fastest kernel set the host runs, %s", kernelInUse(), ks[0])
	}
}

// TestRadix8UnitMatchesStrided pins stageRadix8Unit to the strided radix-8
// loop run at s == 1, bit for bit, over every butterfly count m in 1..64.
// Random operands check the arithmetic order; operands sprinkled with ±0,
// ±Inf, NaN and denormals check that no operation was folded away (x+0 is
// not an identity on -0, nor x*0 a zero on ±Inf and NaN). The twiddles are
// random too, so a swapped table index cannot hide behind a symmetry. A
// NaN matches any NaN: the compiler may emit either operand order of a
// floating-point addition or multiplication, and x86 propagates the first
// operand's payload, so payloads are not part of the contract.
func TestRadix8UnitMatchesStrided(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	special := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -5e-324, math.SmallestNonzeroFloat64 * 3, 1, -1,
	}
	draw := func(specials bool) float64 {
		if specials && rng.Intn(16) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.NormFloat64()
	}
	for m := 1; m <= 64; m++ {
		for _, specials := range []bool{false, true} {
			st := &stage{r: 8, m: m, s: 1, tw: make([]complex128, 7*m)}
			for i := range st.tw {
				st.tw[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			x := make([]complex128, 8*m)
			for i := range x {
				x[i] = complex(draw(specials), draw(specials))
			}
			want := make([]complex128, 8*m)
			got := make([]complex128, 8*m)
			stageRadix8(st, want, x)
			stageRadix8Unit(st, got, x)
			if i := firstBitDiff(nanless(got), nanless(want)); i >= 0 {
				t.Fatalf("m=%d specials=%v: element %d is %v, strided loop gives %v", m, specials, i, got[i], want[i])
			}
		}
	}
}

// nanless returns x with every NaN component replaced by one canonical NaN.
func nanless(x []complex128) []complex128 {
	canon := func(v float64) float64 {
		if math.IsNaN(v) {
			return math.NaN()
		}
		return v
	}
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = complex(canon(real(v)), canon(imag(v)))
	}
	return out
}

// operandDraw returns a generator of float64 operands: normal deviates,
// with one in sixteen drawn from ±0, ±Inf, NaN and denormals when specials
// is set.
func operandDraw(rng *rand.Rand, specials bool) func() float64 {
	special := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -5e-324, math.SmallestNonzeroFloat64 * 3, 1e-310, -1e-310, 1, -1,
	}
	return func() float64 {
		if specials && rng.Intn(16) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.NormFloat64()
	}
}

// carve returns n complex operands drawn by draw, cut out of a larger
// NaN-filled buffer with a margin on either side, so that a kernel reading
// one element out of range reads NaN. Pass draw == nil for NaN operands.
func carve(n int, draw func() float64) []complex128 {
	nan := complex(math.NaN(), math.NaN())
	buf := make([]complex128, n+4)
	for i := range buf {
		buf[i] = nan
	}
	x := buf[2 : 2+n : 2+n]
	if draw != nil {
		for i := range x {
			x[i] = complex(draw(), draw())
		}
	}
	return x
}

// guarded returns an n-element output carved out of a buffer whose margins
// hold a sentinel, and a check that the margins are intact.
func guarded(n int) (y []complex128, intact func() bool) {
	const guard = complex(0x5a5a, -0x5a5a)
	buf := make([]complex128, n+4)
	for i := range buf {
		buf[i] = guard
	}
	return buf[2 : 2+n : 2+n], func() bool {
		return buf[0] == guard && buf[1] == guard && buf[n+2] == guard && buf[n+3] == guard
	}
}

// sameBits requires got and want equal bit for bit, any NaN matching any
// NaN (payloads are not part of the contract; see TestRadix8UnitMatchesStrided).
func sameBits(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	if i := firstBitDiff(nanless(got), nanless(want)); i >= 0 {
		t.Fatalf("%s: element %d is %v (%x, %x), Go twin gives %v (%x, %x)", what, i,
			got[i], math.Float64bits(real(got[i])), math.Float64bits(imag(got[i])),
			want[i], math.Float64bits(real(want[i])), math.Float64bits(imag(want[i])))
	}
}
