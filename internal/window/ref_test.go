package window

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The response evaluator as it stood before the search sampled each
// candidate once, kept verbatim (names prefixed) as the oracle: it samples
// the prototype afresh — two Bessel series, a Sin and a Sincos per sample —
// for every frequency it is asked about.

func refPrototype(p Params, beta, cutoff float64) func(t float64) complex128 {
	half := float64(p.TapsLen()) / 2
	center := float64(p.M()) / 2
	fc := cutoff / float64(p.N)
	n := float64(p.N)
	return func(t float64) complex128 {
		w := refKaiser(t/half, beta)
		if w == 0 {
			return 0
		}
		lp := 2 * fc * sinc(2*fc*t) * w
		s, c := math.Sincos(-2 * math.Pi * center * t / n)
		return complex(lp*c, lp*s)
	}
}

func refKaiser(x, beta float64) float64 {
	if x < -1 || x > 1 {
		return 0
	}
	return besselI0(beta*math.Sqrt(1-x*x)) / besselI0(beta)
}

func refContinuousResponse(p Params, beta, cutoff float64, kappa float64) complex128 {
	L2 := 2 * p.TapsLen()
	t0 := float64(p.TapsLen())/2 - 0.5
	g := refPrototype(p, beta, cutoff)
	w := math.Pi * kappa / float64(p.N) // 2*pi*(nu2/2)*kappa/N per half-step
	var re, im float64
	for nu2 := 0; nu2 < L2; nu2++ {
		v := g(float64(nu2)/2 - t0)
		if v == 0 {
			continue
		}
		s, c := math.Sincos(w * float64(nu2))
		re += real(v)*c - imag(v)*s
		im += real(v)*s + imag(v)*c
	}
	return complex(re/2, im/2)
}

// TestResponseMatchesReference holds continuousResponse to the oracle at
// the band edges, the first images, the ends of the wrap-free range and
// random frequencies between, for the two corners and the centre of the
// search at every geometry of the golden grid. The evaluator does the
// oracle's arithmetic in the oracle's order, so the responses are equal
// bit for bit, not merely within the 1e-14 of the samples' absolute sum
// that a re-ordered or recurrence-driven sum could promise. That is what
// the search needs: where the stop band sits at the rounding floor (mu =
// 3/2, or 5/4 at B = 72) the scores are rounding noise, and any other
// rounding picks another winner and with it other taps.
func TestResponseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, p := range goldenGrid() {
		t.Run(fmt.Sprintf("mu=%d_%d/B=%d/S=%d/N=%d", p.NMu, p.DMu, p.B, p.Segments, p.N), func(t *testing.T) {
			betaBase, trans := kaiserStart(p)
			cands := [][2]float64{
				{0.85 * betaBase, float64(p.M())/2 + 0.35*trans},
				{betaBase, float64(p.M())/2 + 0.5*trans},
				{1.3 * betaBase, float64(p.M())/2 + 0.65*trans},
			}
			var protos [][]complex128
			for _, c := range cands {
				protos = append(protos, oversample(p, prototype(p, c[0], c[1])))
			}
			n, m, mp := float64(p.N), float64(p.M()), float64(p.MPrime())
			kappas := []float64{0, m - 1, mp, -mp, n, -n}
			for i := 0; i < 4; i++ {
				kappas = append(kappas, (2*rng.Float64()-1)*n)
			}
			ph := make([]complex128, 2*p.TapsLen())
			got := make([]complex128, len(protos))
			for _, kappa := range kappas {
				continuousResponse(p, protos, kappa, ph, got)
				for i, c := range cands {
					if want := refContinuousResponse(p, c[0], c[1], kappa); got[i] != want {
						t.Errorf("beta=%v cutoff=%v kappa=%v: response %v, reference %v (off by %g)",
							c[0], c[1], kappa, got[i], want, cabs(got[i]-want))
					}
				}
			}
		})
	}
}
