// Package cvec provides low-level kernels on interleaved double-precision
// complex vectors ([]complex128): strided gather, cache-blocked matrix
// transposition, error norms, and the byte image the sockets carry.
//
// The blocked transpose is the Go analogue of the register-tile transposes
// the paper builds its node-local FFT on (Section 5.2): it bounds the
// working set of each pass.
package cvec

import "math"

// GatherStride copies src[offset + i*stride] into dst[i] for i < len(dst).
func GatherStride(dst, src []complex128, offset, stride int) {
	j := offset
	for i := range dst {
		dst[i] = src[j]
		j += stride
	}
}

// transposeBlock is the tile edge used by the blocked transpose. 8 complex128
// values per row of a tile is one 128-byte pair of cache lines, mirroring the
// 8x8 double-precision register tiles the paper transposes with cross-lane
// loads (Section 5.2.4).
const transposeBlock = 8

// Transpose writes the transpose of src (rows x cols, row-major) into dst
// (cols x rows, row-major). dst must not alias src. It walks tiles so that
// both streams stay within cache-resident tiles, which is what makes steps
// 1/4/6 of the 6-step FFT bandwidth-bound rather than latency-bound.
func Transpose(dst, src []complex128, rows, cols int) {
	if len(src) < rows*cols || len(dst) < rows*cols {
		panic("cvec: Transpose buffer too short")
	}
	for rb := 0; rb < rows; rb += transposeBlock {
		rmax := min(rb+transposeBlock, rows)
		for cb := 0; cb < cols; cb += transposeBlock {
			cmax := min(cb+transposeBlock, cols)
			for r := rb; r < rmax; r++ {
				srow := src[r*cols:]
				for c := cb; c < cmax; c++ {
					dst[c*rows+r] = srow[c]
				}
			}
		}
	}
}

// TransposeNaive is the unblocked transpose used as a baseline in benchmarks.
func TransposeNaive(dst, src []complex128, rows, cols int) {
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			dst[c*rows+r] = src[r*cols+c]
		}
	}
}

// MaxAbsDiff returns max_i |a[i]-b[i]|.
func MaxAbsDiff(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		d := a[i] - b[i]
		if v := math.Hypot(real(d), imag(d)); v > m {
			m = v
		}
	}
	return m
}

// L2Norm returns sqrt(sum |x[i]|^2).
func L2Norm(x []complex128) float64 {
	s := 0.0
	for _, v := range x {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// RelErrL2 returns ||a-b||_2 / ||b||_2, or ||a-b||_2 when b is zero.
// It is the accuracy metric used throughout the test suite to compare the
// SOI pipeline against reference transforms.
func RelErrL2(a, b []complex128) float64 {
	if len(a) != len(b) {
		panic("cvec: RelErrL2 length mismatch")
	}
	num := 0.0
	den := 0.0
	for i := range a {
		d := a[i] - b[i]
		num += real(d)*real(d) + imag(d)*imag(d)
		den += real(b[i])*real(b[i]) + imag(b[i])*imag(b[i])
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}
