package fft

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"soifft/internal/cvec"
	"soifft/internal/ref"
)

// testSizes covers every dispatch path: tiny, pure radix-2/4, each small
// prime, mixed products, and Bluestein (large prime factors).
var testSizes = []int{
	1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
	20, 21, 24, 25, 26, 27, 32, 35, 44, 49, 52, 55, 60, 64,
	100, 121, 125, 128, 144, 169, 210, 256, 343, 360, 512, 1001, 1024,
	// rough sizes -> Bluestein
	17, 19, 23, 29, 31, 37, 41, 97, 101, 257, 509, 1009,
	// SOI-relevant shapes: M' = (8/7)*M with M = 7*2^k, and (5/4)*2^k
	7 * 16, 8 * 16, 5 * 64, 7 * 64, 8 * 64, 1280, 1792, 2048,
}

// Forward/Inverse comparisons against the dense reference DFT live in the
// kernel-oracle suite (oracle_test.go), which drives every engine and
// direction through shared oracles.

func TestRoundTrip(t *testing.T) {
	for _, n := range testSizes {
		p := MustPlan(n)
		x := ref.RandomVector(n, int64(3*n+2))
		y := make([]complex128, n)
		z := make([]complex128, n)
		p.Forward(y, x)
		p.Inverse(z, y)
		if err := cvec.RelErrL2(z, x); err > 1e-12 {
			t.Errorf("n=%d: round-trip relative error %g", n, err)
		}
	}
}

func TestInPlaceTransform(t *testing.T) {
	for _, n := range testSizes {
		p := MustPlan(n)
		x := ref.RandomVector(n, int64(5*n+7))
		want := make([]complex128, n)
		p.Forward(want, x)
		// Same transform with dst aliasing src.
		inPlace := append([]complex128(nil), x...)
		p.Forward(inPlace, inPlace)
		if err := cvec.RelErrL2(inPlace, want); err != 0 {
			t.Errorf("n=%d: in-place differs from out-of-place by %g", n, err)
		}
	}
}

func TestImpulseResponse(t *testing.T) {
	// DFT of a shifted impulse is a pure exponential of unit magnitude.
	for _, n := range []int{8, 12, 35, 37, 128, 1009} {
		p := MustPlan(n)
		pos := n / 3
		y := make([]complex128, n)
		p.Forward(y, ref.Impulse(n, pos))
		for k := 0; k < n; k++ {
			want := cmplx.Exp(complex(0, -2*math.Pi*float64(k*pos%n)/float64(n)))
			if cmplx.Abs(y[k]-want) > 1e-12*float64(n) {
				t.Fatalf("n=%d k=%d: impulse response %v, want %v", n, k, y[k], want)
			}
		}
	}
}

func TestToneIsolation(t *testing.T) {
	// A pure tone at bin f transforms to a single spike of height n.
	for _, n := range []int{16, 56, 100, 127} {
		p := MustPlan(n)
		f := 2*n/5 + 1
		y := make([]complex128, n)
		p.Forward(y, ref.Tones(n, []int{f}, []complex128{1}))
		for k := 0; k < n; k++ {
			want := complex(0, 0)
			if k == f {
				want = complex(float64(n), 0)
			}
			if cmplx.Abs(y[k]-want) > 1e-9*float64(n) {
				t.Fatalf("n=%d k=%d: got %v want %v", n, k, y[k], want)
			}
		}
	}
}

func TestPlanErrors(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		if _, err := NewPlan(n); err == nil {
			t.Errorf("NewPlan(%d): expected error", n)
		}
	}
}

func TestFactorize(t *testing.T) {
	cases := []struct {
		n      int
		smooth bool
	}{
		{1024, true}, {3 * 1024, true}, {5 * 7 * 11 * 13, true},
		{17, false}, {2 * 17, false}, {1 << 20, true}, {7 * (1 << 10), true},
	}
	for _, c := range cases {
		radices, smooth := factorize(c.n)
		if smooth != c.smooth {
			t.Errorf("factorize(%d): smooth=%v want %v", c.n, smooth, c.smooth)
		}
		if smooth {
			prod := 1
			for _, r := range radices {
				prod *= r
			}
			if prod != c.n {
				t.Errorf("factorize(%d): product %d", c.n, prod)
			}
		}
	}
}

// --- property-based tests (testing/quick) ---

// quickVec adapts a raw float slice from testing/quick into a complex vector
// of the plan length.
func quickVec(vals []float64, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		re, im := 0.1*float64(i%7), -0.1*float64(i%5)
		if 2*i < len(vals) {
			re = math.Mod(vals[2*i], 8)
		}
		if 2*i+1 < len(vals) {
			im = math.Mod(vals[2*i+1], 8)
		}
		if math.IsNaN(re) || math.IsInf(re, 0) {
			re = 1
		}
		if math.IsNaN(im) || math.IsInf(im, 0) {
			im = 1
		}
		x[i] = complex(re, im)
	}
	return x
}

func TestQuickLinearity(t *testing.T) {
	const n = 96
	p := MustPlan(n)
	f := func(av, bv []float64, ar, ai float64) bool {
		if math.IsNaN(ar) || math.IsInf(ar, 0) {
			ar = 0.5
		}
		if math.IsNaN(ai) || math.IsInf(ai, 0) {
			ai = -0.5
		}
		alpha := complex(math.Mod(ar, 4), math.Mod(ai, 4))
		a, b := quickVec(av, n), quickVec(bv, n)
		// F(alpha*a + b)
		comb := make([]complex128, n)
		for i := range comb {
			comb[i] = alpha*a[i] + b[i]
		}
		fc := make([]complex128, n)
		p.Forward(fc, comb)
		// alpha*F(a) + F(b)
		fa := make([]complex128, n)
		fb := make([]complex128, n)
		p.Forward(fa, a)
		p.Forward(fb, b)
		for i := range fa {
			fa[i] = alpha*fa[i] + fb[i]
		}
		return cvec.RelErrL2(fc, fa) < 1e-11
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickParseval(t *testing.T) {
	// ||F(x)||^2 == n * ||x||^2.
	for _, n := range []int{64, 60, 101} {
		p := MustPlan(n)
		f := func(vals []float64) bool {
			x := quickVec(vals, n)
			y := make([]complex128, n)
			p.Forward(y, x)
			lhs := cvec.L2Norm(y)
			rhs := math.Sqrt(float64(n)) * cvec.L2Norm(x)
			return math.Abs(lhs-rhs) <= 1e-10*(1+rhs)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestQuickShiftTheorem(t *testing.T) {
	// DFT(rotate(x, s))[k] == DFT(x)[k] * exp(-2*pi*i*s*k/n).
	const n = 84
	p := MustPlan(n)
	f := func(vals []float64, shift uint8) bool {
		s := int(shift) % n
		x := quickVec(vals, n)
		rot := make([]complex128, n)
		for i := range rot {
			rot[i] = x[(i+s)%n]
		}
		fx := make([]complex128, n)
		fr := make([]complex128, n)
		p.Forward(fx, x)
		p.Forward(fr, rot)
		for k := range fx {
			fx[k] *= cmplx.Exp(complex(0, 2*math.Pi*float64(s*k%n)/float64(n)))
		}
		return cvec.RelErrL2(fr, fx) < 1e-11
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickConvolutionTheorem(t *testing.T) {
	// IFFT(FFT(a) .* FFT(b)) == circular convolution of a and b.
	const n = 48
	p := MustPlan(n)
	f := func(av, bv []float64) bool {
		a, b := quickVec(av, n), quickVec(bv, n)
		fa := make([]complex128, n)
		fb := make([]complex128, n)
		p.Forward(fa, a)
		p.Forward(fb, b)
		for i := range fa {
			fa[i] *= fb[i]
		}
		got := make([]complex128, n)
		p.Inverse(got, fa)
		want := make([]complex128, n)
		for i := 0; i < n; i++ {
			var acc complex128
			for j := 0; j < n; j++ {
				acc += a[j] * b[(i-j+n)%n]
			}
			want[i] = acc
		}
		return cvec.RelErrL2(got, want) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentPlanUse(t *testing.T) {
	// A single Plan must be safe for concurrent Transform calls.
	const n = 240
	p := MustPlan(n)
	x := ref.RandomVector(n, 9)
	want := make([]complex128, n)
	p.Forward(want, x)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for iter := 0; iter < 50; iter++ {
				got := make([]complex128, n)
				p.Forward(got, x)
				if cvec.RelErrL2(got, want) != 0 {
					done <- errMismatch
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = errString("concurrent transform mismatch")

type errString string

func (e errString) Error() string { return string(e) }

func TestLinearityAcrossAllDispatchPaths(t *testing.T) {
	// DFT(x) at bin 0 equals the plain sum — a quick invariant hit on every
	// dispatch path (codelet, stockham radices, bluestein).
	for _, n := range []int{4, 8, 16, 24, 40, 56, 104, 208, 1009} {
		p := MustPlan(n)
		x := ref.RandomVector(n, int64(n))
		var sum complex128
		for _, v := range x {
			sum += v
		}
		y := make([]complex128, n)
		p.Forward(y, x)
		if d := y[0] - sum; real(d)*real(d)+imag(d)*imag(d) > 1e-18*float64(n*n) {
			t.Errorf("n=%d: Y[0]=%v, sum=%v", n, y[0], sum)
		}
	}
}

func TestConjugateSymmetryForRealInput(t *testing.T) {
	// Real input => Y[k] == conj(Y[n-k]).
	for _, n := range []int{32, 56, 101} {
		p := MustPlan(n)
		x := make([]complex128, n)
		for i := range x {
			re := float64((i*7)%13) - 6
			x[i] = complex(re, 0)
		}
		y := make([]complex128, n)
		p.Forward(y, x)
		for k := 1; k < n; k++ {
			want := complex(real(y[n-k]), -imag(y[n-k]))
			d := y[k] - want
			if real(d)*real(d)+imag(d)*imag(d) > 1e-18*float64(n*n) {
				t.Fatalf("n=%d k=%d: conjugate symmetry broken", n, k)
			}
		}
	}
}
