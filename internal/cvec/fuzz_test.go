package cvec

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzSoARoundTrip pins the layout conversions as pure element movers:
// AoS⇄SoA conversion (allocating and in-place pairs), CopyTo and Slice must
// preserve every float64 bit pattern — NaN payloads, infinities, signed
// zeros, denormals. The split-plane FFT paths (internal/fft soa_*.go) rely
// on this: switching layout mid-pipeline must never perturb data, only
// arithmetic kernels may round. The two uint8 arguments pick the Slice
// bounds (and keep the checked-in corpus valid).
func FuzzSoARoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(1), uint8(1))
	f.Add([]byte{1, 2, 3}, uint8(2), uint8(3)) // partial element tail
	seed := make([]byte, 16*6)
	for i, v := range []float64{
		math.NaN(), math.Float64frombits(0x7ff8_dead_beef_0001), // NaN payloads
		math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), 5e-324, // signed zero, denormal
		1.5, -2.25, math.MaxFloat64, -math.SmallestNonzeroFloat64,
		0, 42,
	} {
		binary.LittleEndian.PutUint64(seed[8*i:], math.Float64bits(v))
	}
	f.Add(seed, uint8(3), uint8(2))
	f.Add(seed, uint8(0), uint8(0)) // degenerate shape params
	f.Fuzz(func(t *testing.T, data []byte, rowsRaw, strideRaw uint8) {
		n := len(data) / 16
		x := make([]complex128, n)
		for i := 0; i < n; i++ {
			re := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
			im := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
			x[i] = complex(re, im)
		}

		bitsEq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

		// AoS -> SoA -> AoS.
		s := FromComplex(x)
		if s.Len() != n {
			t.Fatalf("Len = %d, want %d", s.Len(), n)
		}
		back := s.ToComplex()
		for i := range x {
			if !bitsEq(real(x[i]), real(back[i])) || !bitsEq(imag(x[i]), imag(back[i])) {
				t.Fatalf("AoS round trip: element %d changed bits", i)
			}
		}
		// The in-place conversion pair agrees with the allocating pair.
		s2 := NewSoA(n)
		FromComplexInto(s2, x)
		back2 := make([]complex128, n)
		s2.CopyToComplex(back2)
		for i := range back2 {
			if !bitsEq(real(back2[i]), real(back[i])) || !bitsEq(imag(back2[i]), imag(back[i])) {
				t.Fatalf("FromComplexInto/CopyToComplex: element %d differs from FromComplex/ToComplex", i)
			}
		}

		// CopyTo.
		cp := NewSoA(n)
		s.CopyTo(cp)
		if !soaBitsEqual(cp, s) {
			t.Fatal("CopyTo changed bits")
		}

		// Slice keeps the plane pairing.
		if n > 0 {
			lo := int(rowsRaw) % n
			hi := lo + int(strideRaw)%(n-lo+1)
			sub := s.Slice(lo, hi)
			for i := 0; i < hi-lo; i++ {
				if !bitsEq(sub.Re[i], s.Re[lo+i]) || !bitsEq(sub.Im[i], s.Im[lo+i]) {
					t.Fatalf("Slice(%d,%d): element %d mispaired", lo, hi, i)
				}
			}
		}
	})
}

// soaBitsEqual is planeEqual under bit comparison (shared with soa_test.go's
// planeEqual, which it delegates to — both compare Float64bits).
func soaBitsEqual(a, b SoA) bool { return planeEqual(a, b) }
