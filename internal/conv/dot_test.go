package conv

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// dotShape is the geometry of one dotRows call: rows rows of b taps against
// n windows of the lane, wstep elements apart, the lane shifted off elements
// into its buffer; row a of window c is stored at out[c*ostep + a*stride].
type dotShape struct {
	rows, b, n, wstep, off, stride, ostep int
}

// laneLen returns the number of lane elements the windows read.
func (d dotShape) laneLen() int { return (d.n-1)*d.wstep + d.b }

// outLen returns the length of out up to and including the last output.
func (d dotShape) outLen() int { return (d.n-1)*d.ostep + (d.rows-1)*d.stride + 1 }

// TestHostKernels logs the convolution kernels this host runs, so that a
// test log says whether the 512-bit path was exercised, and requires the
// production choice to be the first of them, the fastest.
func TestHostKernels(t *testing.T) {
	ks := kernels()
	t.Logf("convolution kernels this host runs: %v; dotRows uses %s", ks, kernelInUse())
	if kernelInUse() != ks[0] {
		t.Errorf("dotRows uses %s, not the fastest kernel the host runs, %s", kernelInUse(), ks[0])
	}
}

// TestDotRowsRoundingBound holds every kernel to the rounding bound of the
// dot product instead of to another kernel's bits. For an output
// p * sum_k r_k*w_k of a B-tap row, each component is within
// gamma_(B+2) = (B+2)u/(1-(B+2)u), u = 2^-53, times
// sum_k |r_k|(|Re w_k||Re p| + |Im w_k||Im p|) (real part; the imaginary
// part pairs Re w with Im p and Im w with Re p) of the exact value: B
// roundings at most on any term's way through a sum in any order, with or
// without fused multiply-adds, and two in the rotation. For a unit phase
// that is within gamma_(B+2)*sum_k |r_k||w_k|. The exact value and the bound
// come from math/big at a precision that makes every operation exact
// (checked). Operands: random; cancellation-heavy (each row's taps sum to
// almost zero over an almost constant lane, so the sum is ~1e-12 of its
// terms); and ~300 dB of dynamic range (magnitudes 10^±7.5, random signs).
// No operand or phase is denormal, so no product underflows.
func TestDotRowsRoundingBound(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	logUniform := func() float64 {
		v := math.Pow(10, 15*rng.Float64()-7.5)
		if rng.Intn(2) == 0 {
			return -v
		}
		return v
	}
	classes := []struct {
		name string
		fill func(taps []float64, lane []complex128, d dotShape)
	}{
		{"random", func(taps []float64, lane []complex128, d dotShape) {}},
		{"cancellation", func(taps []float64, lane []complex128, d dotShape) {
			w0 := lane[0]
			for i := range lane {
				lane[i] = w0 * complex(1+0x1p-40*rng.NormFloat64(), 0x1p-40*rng.NormFloat64())
			}
			for a := 0; a < d.rows; a++ {
				r, h := taps[a*d.b:][:d.b], d.b/2
				for k := 0; k < h; k++ {
					r[k+h] = -r[k] * (1 + 0x1p-40*rng.NormFloat64())
				}
				if d.b%2 == 1 {
					r[d.b-1] = 0x1p-40 * r[0]
				}
			}
		}},
		{"dynamic-range", func(taps []float64, lane []complex128, d dotShape) {
			for i := range taps {
				taps[i] = logUniform()
			}
			for i := range lane {
				lane[i] = complex(logUniform(), logUniform())
			}
		}},
	}
	worst := 0.0
	for _, class := range classes {
		for b := 1; b <= 96; b++ {
			rows := 1 + rng.Intn(9)
			stride := 1 + rng.Intn(8)
			d := dotShape{rows: rows, b: b, n: 1 + rng.Intn(4), wstep: 1 + rng.Intn(b+1),
				off: rng.Intn(8), stride: stride, ostep: rows * stride}
			taps, dup, lane := dotOperands(d, rng.NormFloat64)
			class.fill(taps, lane, d)
			for i, r := range taps {
				dup[2*i], dup[2*i+1] = r, r
			}
			phase := phases(rows, rng, false)
			outs := map[string][]complex128{}
			for _, k := range kernels() {
				restore := useKernel(k)
				outs[k] = make([]complex128, d.outLen())
				dotRows(outs[k], d.stride, d.ostep, taps, dup, lane, d.wstep, d.n, phase)
				restore()
			}
			for c := 0; c < d.n; c++ {
				for a, p := range phase {
					want, bound := exactRotatedSum(t, taps[a*b:][:b], lane[c*d.wstep:][:b], p)
					for k, out := range outs {
						got := out[c*d.ostep+a*d.stride]
						for part, g := range [2]float64{real(got), imag(got)} {
							ratio, ok := withinGamma(g, want[part], bound[part], b+2)
							worst = max(worst, ratio)
							if !ok {
								t.Fatalf("%s/%s B=%d rows=%d window %d row %d part %d: %v is %.3g of gamma_%d*bound from the exact %s",
									class.name, k, b, rows, c, a, part, got, ratio, b+2, want[part].Text('g', 20))
							}
						}
					}
				}
			}
		}
	}
	t.Logf("largest error as a share of the bound: %.3g", worst)
}

// exactPrec is the mantissa width, in bits, of the rounding-bound test's exact
// arithmetic: far more than the span of its operands' products and sums.
const exactPrec = 2048

// exactRotatedSum returns p * sum_k r[k]*w[k] exactly, real and imaginary
// part, with the two bound sums of TestDotRowsRoundingBound.
func exactRotatedSum(t *testing.T, r []float64, w []complex128, p complex128) (want, bound [2]*big.Float) {
	t.Helper()
	exact := func(z *big.Float) *big.Float {
		if z.Acc() != big.Exact {
			t.Fatalf("reference not exact at %d bits", exactPrec)
		}
		return z
	}
	f := func(x float64) *big.Float { return new(big.Float).SetPrec(exactPrec).SetFloat64(x) }
	prod := func(x, y float64) *big.Float { return exact(new(big.Float).SetPrec(exactPrec).Mul(f(x), f(y))) }
	sRe, sIm, aRe, aIm := f(0), f(0), f(0), f(0)
	for k, rk := range r {
		exact(sRe.Add(sRe, prod(rk, real(w[k]))))
		exact(sIm.Add(sIm, prod(rk, imag(w[k]))))
		exact(aRe.Add(aRe, prod(math.Abs(rk), math.Abs(real(w[k])))))
		exact(aIm.Add(aIm, prod(math.Abs(rk), math.Abs(imag(w[k])))))
	}
	mul := func(x *big.Float, y float64) *big.Float { return exact(new(big.Float).SetPrec(exactPrec).Mul(x, f(y))) }
	pr, pi := real(p), imag(p)
	want[0] = exact(new(big.Float).SetPrec(exactPrec).Sub(mul(sRe, pr), mul(sIm, pi)))
	want[1] = exact(new(big.Float).SetPrec(exactPrec).Add(mul(sRe, pi), mul(sIm, pr)))
	bound[0] = exact(new(big.Float).SetPrec(exactPrec).Add(mul(aRe, math.Abs(pr)), mul(aIm, math.Abs(pi))))
	bound[1] = exact(new(big.Float).SetPrec(exactPrec).Add(mul(aRe, math.Abs(pi)), mul(aIm, math.Abs(pr))))
	return want, bound
}

// withinGamma reports whether |got - want| <= gamma_n * bound, with
// gamma_n = n*u/(1-n*u), u = 2^-53, compared without a division as
// |got - want|*(1-n*u) <= n*u*bound at exactPrec bits, and the error as a
// share of the bound.
func withinGamma(got float64, want, bound *big.Float, n int) (ratio float64, ok bool) {
	nu := new(big.Float).SetPrec(exactPrec).SetFloat64(float64(n) * 0x1p-53)
	err := new(big.Float).SetPrec(exactPrec).SetFloat64(got)
	err.Sub(err, want).Abs(err)
	lhs := new(big.Float).SetPrec(exactPrec).Sub(new(big.Float).SetInt64(1), nu)
	lhs.Mul(lhs, err)
	rhs := new(big.Float).SetPrec(exactPrec).Mul(nu, bound)
	if rhs.Sign() == 0 {
		return 0, lhs.Sign() == 0
	}
	ratio, _ = new(big.Float).Quo(lhs, rhs).Float64()
	return ratio, lhs.Cmp(rhs) <= 0
}
