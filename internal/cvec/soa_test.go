package cvec

import (
	"math"
	"testing"

	"soifft/internal/ref"
)

// planeEqual reports bit-exact equality of two SoA vectors (NaN == NaN).
func planeEqual(a, b SoA) bool {
	if len(a.Re) != len(b.Re) || len(a.Im) != len(b.Im) {
		return false
	}
	for i := range a.Re {
		if math.Float64bits(a.Re[i]) != math.Float64bits(b.Re[i]) ||
			math.Float64bits(a.Im[i]) != math.Float64bits(b.Im[i]) {
			return false
		}
	}
	return true
}

func TestFromComplexIntoCopyToComplex(t *testing.T) {
	x := ref.RandomVector(97, 1)
	// Inject non-finite payloads: conversions must be bit-exact.
	x[3] = complex(math.NaN(), math.Inf(1))
	x[7] = complex(math.Copysign(0, -1), 5e-324)
	s := NewSoA(len(x))
	FromComplexInto(s, x)
	back := make([]complex128, len(x))
	s.CopyToComplex(back)
	for i := range x {
		if math.Float64bits(real(x[i])) != math.Float64bits(real(back[i])) ||
			math.Float64bits(imag(x[i])) != math.Float64bits(imag(back[i])) {
			t.Fatalf("element %d: %v -> %v not bit-exact", i, x[i], back[i])
		}
	}
	if !planeEqual(s, FromComplex(x)) {
		t.Fatal("FromComplexInto differs from FromComplex")
	}
}
