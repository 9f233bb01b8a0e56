// Package ref provides slow-but-obviously-correct reference implementations
// and deterministic signal generators shared by tests and benchmarks. The
// O(n^2) DFT here is the ground truth every fast path in the repository is
// measured against.
package ref

import (
	"math"
	"math/rand"
)

// DFT computes the unnormalized forward DFT of x directly from the
// definition: X[k] = sum_j x[j] exp(-2*pi*i*j*k/n). O(n^2); intended for
// n up to a few thousand in tests.
func DFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	for k := range out {
		out[k] = dftBin(x, k)
	}
	return out
}

// DFTAt computes the listed bins of the DFT of x, out[i] = X[bins[i]], by
// DFT's sum: O(n) per bin, for spot checks at sizes where DFT is too slow.
func DFTAt(x []complex128, bins []int) []complex128 {
	out := make([]complex128, len(bins))
	for i, k := range bins {
		out[i] = dftBin(x, k)
	}
	return out
}

func dftBin(x []complex128, k int) complex128 {
	n := len(x)
	var sumRe, sumIm float64
	for j := 0; j < n; j++ {
		// Reduce j*k mod n in integers to keep the angle small.
		a := -2 * math.Pi * float64((j*k)%n) / float64(n)
		s, c := math.Sincos(a)
		re, im := real(x[j]), imag(x[j])
		sumRe += re*c - im*s
		sumIm += re*s + im*c
	}
	return complex(sumRe, sumIm)
}

// IDFT computes the normalized inverse DFT of x directly. O(n^2).
func IDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	inv := 1 / float64(n)
	for j := 0; j < n; j++ {
		var sumRe, sumIm float64
		for k := 0; k < n; k++ {
			a := 2 * math.Pi * float64((j*k)%n) / float64(n)
			s, c := math.Sincos(a)
			re, im := real(x[k]), imag(x[k])
			sumRe += re*c - im*s
			sumIm += re*s + im*c
		}
		out[j] = complex(sumRe*inv, sumIm*inv)
	}
	return out
}

// RandomVector returns a deterministic pseudo-random complex vector with
// components uniform in [-1, 1), seeded by seed.
func RandomVector(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
	}
	return x
}

// Tones returns a length-n vector that is a sum of complex exponentials at
// the given integer frequency bins with the given amplitudes. Its DFT is
// exactly amp[i]*n at bin freq[i] (and 0 elsewhere), which makes spectral
// assertions trivial.
func Tones(n int, freqs []int, amps []complex128) []complex128 {
	x := make([]complex128, n)
	for j := 0; j < n; j++ {
		var acc complex128
		for i, f := range freqs {
			a := 2 * math.Pi * float64((j*((f%n+n)%n))%n) / float64(n)
			s, c := math.Sincos(a)
			acc += amps[i] * complex(c, s)
		}
		x[j] = acc
	}
	return x
}

// Impulse returns the unit impulse at position pos: its DFT is a pure
// complex exponential of unit magnitude in every bin.
func Impulse(n, pos int) []complex128 {
	x := make([]complex128, n)
	x[pos] = 1
	return x
}
