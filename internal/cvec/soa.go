package cvec

// AoS <-> SoA conversions into caller-owned buffers, for hot paths that
// cannot allocate (fft.Plan.TransformSoA's Bluestein round trip); the
// allocating pair FromComplex/ToComplex lives in cvec.go.
//
// Indexing contract. An SoA value addresses complex element i as
// (Re[i], Im[i]); the two planes always have equal length and element i of
// one plane corresponds to element i of the other. Both conversions below
// preserve that pairing and are bit-exact per component — NaN payloads,
// infinities, signed zeros and denormals survive unchanged
// (FuzzSoARoundTrip pins this).
//
// The reslice preambles (`re = dst.Re[:len(x)]` etc.) hoist the bounds
// proofs out of the loops; bce_budget.json pins the loops check-free.

// FromComplexInto splits x into dst's planes; dst must have length >=
// len(x). The conversion is per-component and bit-exact.
func FromComplexInto(dst SoA, x []complex128) {
	re := dst.Re[:len(x)]
	im := dst.Im[:len(x)]
	for i, v := range x {
		re[i] = real(v)
		im[i] = imag(v)
	}
}

// CopyToComplex interleaves s into dst; dst must have length >= s.Len().
// The conversion is per-component and bit-exact.
func (s SoA) CopyToComplex(dst []complex128) {
	dst = dst[:len(s.Re)]
	im := s.Im[:len(s.Re)]
	for i, r := range s.Re {
		dst[i] = complex(r, im[i])
	}
}
