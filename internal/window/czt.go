package window

import (
	"math"

	"soifft/internal/fft"
)

// partialDFT computes X[k] = sum_nu h[nu] * exp(+2*pi*i*nu*k/bigN) for
// k in [0, K) — the first K bins of a length-bigN DFT of a short sequence —
// using Bluestein's chirp-z identity nu*k = (nu^2 + k^2 - (k-nu)^2)/2:
//
//	X[k] = w^{k^2/2} * sum_nu (h[nu] * w^{nu^2/2}) * w^{-(k-nu)^2/2}
//
// i.e. one linear convolution with the chirp kernel, done with an FFT of
// length m >= len(h)+K-1 (chirpLen is the shortest). This is what makes
// designing demodulation tables for M in the millions affordable.
func partialDFT(h []complex128, bigN, K, m int) []complex128 {
	L := len(h)
	plan := fft.MustPlan(m)

	// w = exp(+2*pi*i/bigN); w^{t^2/2} = exp(+pi*i*t^2/bigN). Reduce t^2
	// mod 2*bigN in integers so the angle stays accurate for huge K.
	two := uint64(2 * bigN)
	chirp := func(t int) complex128 {
		tt := (uint64(t) * uint64(t)) % two
		ang := math.Pi * float64(tt) / float64(bigN)
		s, c := math.Sincos(ang)
		return complex(c, s)
	}

	a := make([]complex128, m)
	for nu := 0; nu < L; nu++ {
		a[nu] = h[nu] * chirp(nu)
	}
	// Kernel b[t] = w^{-t^2/2} for t in (-L, K), wrapped into [0, m).
	b := make([]complex128, m)
	for t := -(L - 1); t < K; t++ {
		at := t
		if at < 0 {
			at = -at
		}
		v := chirp(at)
		b[(t+m)%m] = complex(real(v), -imag(v))
	}
	plan.Forward(a, a)
	plan.Forward(b, b)
	for i := range a {
		a[i] *= b[i]
	}
	plan.Inverse(a, a)
	out := make([]complex128, K)
	for k := 0; k < K; k++ {
		out[k] = a[k] * chirp(k)
	}
	return out
}

// chirpLen is the FFT length partialDFT uses for L taps and K bins: the
// smallest power of two that holds their linear convolution.
func chirpLen(L, K int) int { return fft.NextPow2(L + K - 1) }
