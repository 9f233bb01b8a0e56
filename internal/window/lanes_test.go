package window

import (
	"bytes"
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

func TestWisdomRebuildsLaneTables(t *testing.T) {
	f, err := Design(Params{N: 7 * 8 * 8 * 4, Segments: 8, NMu: 8, DMu: 7, B: 30})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), buf.Bytes()...)
	g, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.LaneTaps) != len(f.LaneTaps) || len(g.LanePhase) != len(f.LanePhase) {
		t.Fatalf("table sizes changed through save/load")
	}
	for i, v := range f.LaneTaps {
		if math.Float64bits(g.LaneTaps[i]) != math.Float64bits(v) {
			t.Fatalf("LaneTaps[%d] = %x after load, was %x", i, g.LaneTaps[i], v)
		}
	}
	for i, v := range f.LanePhase {
		if g.LanePhase[i] != v {
			t.Fatalf("LanePhase[%d] = %v after load, was %v", i, g.LanePhase[i], v)
		}
	}

	// A tampered file: the tap with the largest real part (so its lane phase
	// is far from +-i and an imaginary nudge is not along the tap itself)
	// gets 1e-6 of its magnitude added to its imaginary part.
	h, err := Load(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	wa, wnu := 0, 0
	for a, taps := range h.Taps {
		for nu, v := range taps {
			if math.Abs(real(v)) > math.Abs(real(h.Taps[wa][wnu])) {
				wa, wnu = a, nu
			}
		}
	}
	h.Taps[wa][wnu] += complex(0, 1e-6*cmplx.Abs(h.Taps[wa][wnu]))
	buf.Reset()
	if err := h.Save(&buf); err != nil {
		t.Fatal(err)
	}
	_, err = Load(&buf)
	var pe *phaseError
	if !errors.As(err, &pe) {
		t.Fatalf("Load of a tampered tap returned %v, want a *phaseError", err)
	}
	if pe.A != wa || pe.Nu != wnu {
		t.Errorf("error names tap [%d][%d], tampered [%d][%d]", pe.A, pe.Nu, wa, wnu)
	}
}
