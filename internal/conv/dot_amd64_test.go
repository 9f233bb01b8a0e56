package conv

import (
	"math"
	"math/rand"
	"testing"

	"soifft/internal/cpu"
)

// kernels names the convolution kernels the host can execute: "avx512"
// (dotRowsAVX512 with dotRowsFMA for the remainders, and gatherLanesAVX2)
// when the processor has AVX-512F besides AVX2 and FMA, "avx2" (dotRowsFMA
// and gatherLanesAVX2) when it has AVX2 and FMA, and "portable" always.
func kernels() []string {
	switch {
	case cpu.AVX2 && cpu.FMA && cpu.AVX512F:
		return []string{"avx512", "avx2", "portable"}
	case cpu.AVX2 && cpu.FMA:
		return []string{"avx2", "portable"}
	}
	return []string{"portable"}
}

// kernelInUse names the kernel dotRows runs now.
func kernelInUse() string {
	switch {
	case haveAVX512:
		return "avx512"
	case haveFMA:
		return "avx2"
	}
	return "portable"
}

// useKernel makes the named kernel the one dotRows runs and returns the
// function that puts the host's own choice back. It is the only place that
// assigns haveFMA and haveAVX512.
func useKernel(name string) (restore func()) {
	fma, avx512 := haveFMA, haveAVX512
	haveFMA, haveAVX512 = name != "portable", name == "avx512"
	return func() { haveFMA, haveAVX512 = fma, avx512 }
}

// dotRowsFMAGo is dotRowsFMA in Go, the oracle of both vector kernels
// (dotRowsAVX512 does the same operations in the same order): the same fused
// multiply-adds in the same order, math.FMA rounding once as VFMADD231PD
// does. acc0 and acc1 are the kernel's two YMM accumulators of a row,
// [re, im] of a group's first tap and then of its second in acc0, of its
// third and fourth in acc1; the b%4 tail taps go first, into acc0's low half.
func dotRowsFMAGo(out []complex128, stride, ostep int, taps []float64, lane []complex128, wstep, n int, phase []complex128) {
	b := len(taps) / len(phase)
	for c := 0; c < n; c++ {
		w, o := lane[c*wstep:][:b], out[c*ostep:]
		for a, ph := range phase {
			r := taps[a*b:][:b]
			var acc0, acc1 [4]float64
			for k := b &^ 3; k < b; k++ {
				acc0[0] = math.FMA(r[k], real(w[k]), acc0[0])
				acc0[1] = math.FMA(r[k], imag(w[k]), acc0[1])
			}
			for k := 0; k+4 <= b; k += 4 {
				for i := 0; i < 2; i++ {
					acc0[2*i] = math.FMA(r[k+i], real(w[k+i]), acc0[2*i])
					acc0[2*i+1] = math.FMA(r[k+i], imag(w[k+i]), acc0[2*i+1])
					acc1[2*i] = math.FMA(r[k+2+i], real(w[k+2+i]), acc1[2*i])
					acc1[2*i+1] = math.FMA(r[k+2+i], imag(w[k+2+i]), acc1[2*i+1])
				}
			}
			re := (acc0[0] + acc1[0]) + (acc0[2] + acc1[2])
			im := (acc0[1] + acc1[1]) + (acc0[3] + acc1[3])
			o[a*stride] = complex(re*real(ph)-im*imag(ph), re*imag(ph)+im*real(ph))
		}
	}
}

// checkDotRows runs each vector kernel the host has and their twin on one
// set of operands of shape d and requires equal bits (equal NaN-ness where a
// result is NaN), and that the kernel wrote its n*rows outputs and nothing
// between or after them.
func checkDotRows(t *testing.T, d dotShape, draw func() float64, phase []complex128) {
	t.Helper()
	taps, dup, lane := dotOperands(d, draw)
	n := d.outLen()
	want := make([]complex128, n)
	dotRowsFMAGo(want, d.stride, d.ostep, taps, lane, d.wstep, d.n, phase)
	for _, k := range kernels() {
		if k != "portable" {
			checkDotRowsKernel(t, k, d, taps, dup, lane, phase, want)
		}
	}
}

// checkDotRowsKernel is checkDotRows for the kernel k.
func checkDotRowsKernel(t *testing.T, k string, d dotShape, taps, dup []float64, lane, phase, want []complex128) {
	t.Helper()
	defer useKernel(k)()
	n := d.outLen()
	const guard = 0x5a5a
	gotBuf := make([]complex128, n+d.ostep)
	for i := range gotBuf {
		gotBuf[i] = guard
	}
	dotRows(gotBuf[:n], d.stride, d.ostep, taps, dup, lane, d.wstep, d.n, phase)
	isOut := make([]bool, len(gotBuf))
	for c := 0; c < d.n; c++ {
		for a := 0; a < d.rows; a++ {
			isOut[c*d.ostep+a*d.stride] = true
		}
	}
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	}
	for i, g := range gotBuf {
		if !isOut[i] {
			if g != guard {
				t.Fatalf("%s %+v: kernel wrote element %d, no row's output", k, d, i)
			}
			continue
		}
		if w := want[i]; !same(real(g), real(w)) || !same(imag(g), imag(w)) {
			t.Fatalf("%s %+v output %d: kernel %v (%x, %x), Go %v (%x, %x)", k, d, i,
				g, math.Float64bits(real(g)), math.Float64bits(imag(g)),
				w, math.Float64bits(real(w)), math.Float64bits(imag(w)))
		}
	}
}

func needFMA(t *testing.T) {
	if !haveFMA {
		t.Skip("processor or OS without AVX2 and FMA: the portable kernels are the only ones")
	}
}

// TestDotRowsBitIdentical pins the vector kernels (dotRowsFMA, and where the
// host has AVX-512F dotRowsAVX512 with its remainders) to dotRowsFMAGo bit
// for bit over every width through 96 (all tail lengths, zero to 24 groups of
// four), 1 to 17 rows (zero to four blocks of four, zero to three single
// rows), eight lane offsets and the output strides of both layouts (1 for
// ApplyTile's lane-major tile, S = 8 for Apply's rows), each with 1 to 33
// windows in turn (a tile has up to 32 at the benchmark geometry), one,
// DMu = 7 or B elements apart, and every other case with a gap between the
// windows' outputs; on random data, the rotation by random unit phases and
// by phases with ±0, ±1, ±i and denormal parts.
func TestDotRowsBitIdentical(t *testing.T) {
	needFMA(t)
	rng := rand.New(rand.NewSource(22))
	i := 0
	for b := 1; b <= 96; b++ {
		for rows := 1; rows <= 17; rows++ {
			for off := 0; off < 8; off++ {
				for _, stride := range []int{1, 8} {
					d := dotShape{rows: rows, b: b, n: 1 + i%33, wstep: []int{1, 7, b}[i%3],
						off: off, stride: stride, ostep: rows*stride + i%2}
					checkDotRows(t, d, rng.NormFloat64, phases(rows, rng, off%2 == 1))
					i++
				}
			}
		}
	}
}

// TestDotRowsSpecialValues repeats the comparison with signed zeros,
// denormals, magnitudes whose products overflow and underflow, infinities and
// NaN mixed into the operands: same bits, and NaN exactly where dotRowsFMAGo
// has NaN. No sentinel may leak: a row without a NaN input, an infinity or an
// overflow must stay finite, which the twin's answer already decides.
func TestDotRowsSpecialValues(t *testing.T) {
	needFMA(t)
	rng := rand.New(rand.NewSource(23))
	special := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, 1e-300, -1e-300, 1e300, -1e300,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	shape := func(rows, b int) dotShape {
		stride := 1 + rng.Intn(8)
		return dotShape{rows: rows, b: b, n: 1 + rng.Intn(33), wstep: 1 + rng.Intn(b+1),
			off: rng.Intn(8), stride: stride, ostep: rows*stride + rng.Intn(2)}
	}
	for _, frac := range []float64{0.02, 0.3, 1} { // share of operands drawn from special
		draw := func() float64 {
			if rng.Float64() < frac {
				return special[rng.Intn(len(special))]
			}
			return rng.NormFloat64()
		}
		for iter := 0; iter < 40; iter++ {
			for b := 1; b <= 96; b += 1 + rng.Intn(3) {
				rows := 1 + rng.Intn(9)
				checkDotRows(t, shape(rows, b), draw, phases(rows, rng, true))
			}
		}
	}
	// All-finite, exactly representable operands and phases ±1, ±i: the
	// results are exact, so a sentinel or a misplaced tap, window or phase
	// shows as a wrong integer, not a rounding.
	ints := func() float64 { return float64(rng.Intn(17) - 8) }
	quarter := []complex128{1, -1, 1i, -1i}
	for b := 1; b <= 96; b++ {
		rows := 1 + rng.Intn(9)
		phase := phases(rows, rng, false)
		for a := range phase {
			phase[a] = quarter[rng.Intn(4)]
		}
		checkDotRows(t, shape(rows, b), ints, phase)
	}
}

// TestGatherLanesMatchesGo pins the AVX2 lane gather to gatherLanesGo bit for
// bit over lane counts odd and even (an odd count runs the Go loop, an odd
// input count ends in it), 1 to 40 inputs per lane and a staging stride equal
// to the input count and wider. x is NaN-filled past its l*s inputs and the
// staging buffer sentinel-filled, so that a read past x's inputs or a write
// outside the lanes' runs fails.
func TestGatherLanesMatchesGo(t *testing.T) {
	needFMA(t)
	rng := rand.New(rand.NewSource(30))
	nan := complex(math.NaN(), math.NaN())
	const guard = complex(0x5a5a, -0x5a5a)
	for _, s := range []int{2, 3, 4, 8, 16, 64} {
		for l := 1; l <= 40; l++ {
			for _, sl := range []int{l, l + 5} {
				xBuf := make([]complex128, l*s+2*s)
				for i := range xBuf {
					xBuf[i] = nan
				}
				x := xBuf[:l*s]
				for i := range x {
					x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				want := make([]complex128, s*sl+1)
				got := make([]complex128, s*sl+1)
				for i := range got {
					want[i], got[i] = guard, guard
				}
				gatherLanesGo(want, sl, xBuf, s, 0, l)
				gatherLanes(got, sl, xBuf, s, l)
				for i := range got {
					if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
						math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
						t.Fatalf("s=%d l=%d sl=%d: stage[%d] = %v, Go %v", s, l, sl, i, got[i], want[i])
					}
				}
			}
		}
	}
}
