package ref

import "math"

// The rounding-error model the tolerance checks share. A change that only
// reorders floating-point sums moves an output's last bits; the tolerance
// checks accept such a change when the output stays within these bounds of a
// reference, while a wrong constant or coefficient lands far outside them.

// Roundoff is the unit roundoff of float64, 2^-53: half of Eps.
const Roundoff = 0x1p-53

// FFTBound is the relative L2 error of one n-point FFT against the exact
// DFT: 8*Roundoff*max(1, log2 n), the O(eps log n) rounding growth of an FFT with
// a constant about four times the worst any engine of internal/fft, input
// family and size has shown (its kernel oracle).
func FFTBound(n int) float64 {
	return 8 * Roundoff * math.Max(1, math.Log2(float64(n)))
}

// DotBound is gamma_k = k*Roundoff/(1 - k*Roundoff), the bound on the rounding error
// of a k-term dot product relative to the sum of its terms' magnitudes
// (Higham, Accuracy and Stability of Numerical Algorithms, section 3.1).
func DotBound(k int) float64 {
	return float64(k) * Roundoff / (1 - float64(k)*Roundoff)
}
