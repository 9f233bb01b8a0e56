package window

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"testing"
)

// kaiserFilter builds a filter's taps at the Kaiser starting point, without
// Design's (beta, cutoff) search or its demodulation table. The lane
// factorization depends on the prototype's modulation only, not on the
// low-pass it modulates, so this walks the design space without a search or
// a demodulation table per point.
func kaiserFilter(t *testing.T, p Params) *Filter {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	beta, trans := kaiserStart(p)
	cutoff := float64(p.M())/2 + 0.5*trans
	f := &Filter{Params: p, Taps: make([][]complex128, p.NMu)}
	for a := range f.Taps {
		f.Taps[a] = prototypeTaps(p, beta, cutoff, p.tapShift(a))
	}
	return f
}

func TestLaneFactorizationOverDesignSpace(t *testing.T) {
	for _, mu := range [][2]int{{3, 2}, {5, 4}, {8, 7}, {9, 8}} {
		nmu, dmu := mu[0], mu[1]
		for _, s := range []int{4, 8, 16, 64} {
			for _, b := range []int{dmu, 9, 30, 72} {
				p := Params{N: dmu * s * s, Segments: s, NMu: nmu, DMu: dmu, B: b}
				t.Run(fmt.Sprintf("mu=%d/%d/S=%d/B=%d", nmu, dmu, s, b), func(t *testing.T) {
					f := kaiserFilter(t, p)
					if err := f.factorLanes(); err != nil {
						t.Fatal(err)
					}
					if len(f.LaneTaps) != s*nmu*b || len(f.LanePhase) != s*nmu {
						t.Fatalf("table sizes %d, %d; want %d, %d", len(f.LaneTaps), len(f.LanePhase), s*nmu*b, s*nmu)
					}
					var peak float64
					for _, taps := range f.Taps {
						for _, v := range taps {
							peak = math.Max(peak, cmplx.Abs(v))
						}
					}
					for j := 0; j < s; j++ {
						for a := 0; a < nmu; a++ {
							ph := f.LanePhase[j*nmu+a]
							if d := math.Abs(cmplx.Abs(ph) - 1); d > 1e-15 {
								t.Fatalf("|phase[%d][%d]| off unit by %g", j, a, d)
							}
							for bb := 0; bb < b; bb++ {
								r := f.LaneTaps[(j*nmu+a)*b+bb]
								if d := cmplx.Abs(f.Taps[a][bb*s+j] - complex(r, 0)*ph); d > 1e-14*peak {
									t.Fatalf("tap (a=%d, b=%d, j=%d): |Taps - r*phase| = %g, peak %g", a, bb, j, d, peak)
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestFactorLanesRejectsForeignTap: Design's self-check. The lane phase is
// computed from the geometry, not read off the taps, so a tap that is not a
// real multiple of it — here the tap with the largest real part (its phase is
// far from +-i, so an imaginary nudge is not along the tap itself) with 1e-6
// of its magnitude added to its imaginary part — is named, not absorbed.
func TestFactorLanesRejectsForeignTap(t *testing.T) {
	f, err := Design(Params{N: 7 * 8 * 8 * 4, Segments: 8, NMu: 8, DMu: 7, B: 30})
	if err != nil {
		t.Fatal(err)
	}
	wa, wnu := 0, 0
	for a, taps := range f.Taps {
		for nu, v := range taps {
			if math.Abs(real(v)) > math.Abs(real(f.Taps[wa][wnu])) {
				wa, wnu = a, nu
			}
		}
	}
	f.Taps[wa][wnu] += complex(0, 1e-6*cmplx.Abs(f.Taps[wa][wnu]))
	err = f.factorLanes()
	var pe *phaseError
	if !errors.As(err, &pe) {
		t.Fatalf("factorLanes of a tampered tap returned %v, want a *phaseError", err)
	}
	if pe.A != wa || pe.Nu != wnu {
		t.Errorf("error names tap [%d][%d], tampered [%d][%d]", pe.A, pe.Nu, wa, wnu)
	}
}
