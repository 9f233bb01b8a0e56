package window

import "math"

// Alternative prototype: Gaussian-windowed sinc. DESIGN.md Section 2 argues
// that at a fixed tap budget the Kaiser window's near-optimal
// concentration beats Gaussian-based prototypes, whose balanced
// truncation/spectral-decay exponent is only pi*(mu-1)*B/4 — far short of
// the Kaiser transition's ~2.285*2*pi*(mu-1)*B/20 dB. This file makes that
// claim executable: GaussianScore designs the best balanced Gaussian-sinc
// for the same parameters, scored identically to the production designer,
// and a test asserts Kaiser wins.

// gaussianPrototype returns g_c(t) for a Gaussian-windowed sinc whose
// window standard deviation is sigma samples.
func gaussianPrototype(p Params, sigma, cutoff float64) func(t float64) complex128 {
	half := float64(p.TapsLen()) / 2
	center := float64(p.M()) / 2
	fc := cutoff / float64(p.N)
	n := float64(p.N)
	return func(t float64) complex128 {
		if t < -half || t > half {
			return 0
		}
		w := math.Exp(-t * t / (2 * sigma * sigma))
		lp := 2 * fc * sinc(2*fc*t) * w
		s, c := math.Sincos(-2 * math.Pi * center * t / n)
		return complex(lp*c, lp*s)
	}
}

// GaussianScore returns the best achievable alias score (stopband max over
// passband min, scored by scoreCandidates like the production search's
// candidates) for a Gaussian-windowed sinc prototype at p's tap budget,
// searching over the window width and cutoff. Larger is worse.
func GaussianScore(p Params) float64 {
	M := p.M()
	trans := (p.Mu() - 1) * float64(M)
	half := float64(p.TapsLen()) / 2
	// The balanced sigma equates truncation and spectral decay:
	// sigma^2 = T/(2*pi*delta) with delta the one-sided transition in
	// cycles/sample; search around it.
	deltaCyc := trans / (2 * float64(p.N))
	sigmaBal := math.Sqrt(half / (2 * math.Pi * deltaCyc))
	var protos [][]complex128
	for _, sScale := range []float64{0.6, 0.8, 1.0, 1.25, 1.6} {
		for _, cf := range []float64{0.35, 0.5, 0.65} {
			protos = append(protos, oversample(p, gaussianPrototype(p, sigmaBal*sScale, float64(M)/2+cf*trans)))
		}
	}
	score, _ := scoreCandidates(p, protos)
	best := math.Inf(1)
	for _, sc := range score {
		if sc < best {
			best = sc
		}
	}
	return best
}
