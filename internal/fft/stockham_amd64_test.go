package fft

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"soifft/internal/cpu"
)

// kernels names the stage kernels the host can execute: the AVX2 ones, when
// the processor has them, and the portable Go twins.
func kernels() []string {
	if cpu.AVX2 {
		return []string{"avx2", "portable"}
	}
	return []string{"portable"}
}

// useKernel makes the named kernels the ones the package runs and returns
// the function that puts the host's own choice back. It is the only place
// that assigns haveAVX2.
func useKernel(name string) (restore func()) {
	host := haveAVX2
	haveAVX2 = name == "avx2"
	return func() { haveAVX2 = host }
}

func needAVX2(t *testing.T) {
	t.Helper()
	if !cpu.AVX2 {
		t.Skip("processor or OS without AVX2: the portable kernels are the only ones")
	}
}

// goStage runs the Go twin of st, as runStage does with no vector kernel.
func goStage(st *stage, y, x []complex128) {
	defer useKernel("portable")()
	runStage(st, y, x)
}

// TestStageKernelsMatchGo pins every AVX2 Stockham stage to its Go twin bit
// for bit: radix 2, 4 and 8 at m = 1…64 and radix 7 at m = 1 (its only
// vector pass, untwiddled; m = 2 checks that none is picked), at strides
// s ∈ {1, 2, 3, 8, 64, 256}, each at its own read stride and at wider ones
// (the six-step's first column pass reads at xs = n2), on random operands
// and on operands mixed with ±0, ±Inf, NaN and denormals. Operands sit in
// NaN-filled buffers and outputs between sentinels, so a read or write one
// element out of range fails. Shapes without a vector kernel must say so.
func TestStageKernelsMatchGo(t *testing.T) {
	needAVX2(t)
	defer useKernel("avx2")()
	rng := rand.New(rand.NewSource(28))
	for _, r := range []int{2, 4, 7, 8} {
		for _, s := range []int{1, 2, 3, 8, 64, 256} {
			for _, specials := range []bool{false, true} {
				draw := operandDraw(rng, specials)
				for m := 1; m <= 64; m++ {
					if r == 7 && m > 2 || r*m*s > 1<<16 && m%7 != 0 {
						continue // the widest shapes at every seventh m only
					}
					for _, xs := range []int{s, s + 1, 4*s + 3, 256 + s} {
						checkStage(t, r, m, s, xs, draw, rng)
					}
				}
			}
		}
	}
}

func checkStage(t *testing.T, r, m, s, xs int, draw func() float64, rng *rand.Rand) {
	t.Helper()
	st := &stage{r: r, m: m, s: s, rs: xs, tw: carve((r-1)*m, func() float64 { return rng.NormFloat64() })}
	if r == 8 && s == 1 && m%2 == 0 {
		st.twv = pairTwiddles(st.tw, m)
	}
	if r == 7 {
		st.cs = oddConstants(7)
	}
	// The rows of x are xs apart and s long; the gaps between them are NaN.
	x := carve(xs*(r*m-1)+s, nil)
	for row := 0; row < r*m; row++ {
		for q := 0; q < s; q++ {
			x[row*xs+q] = complex(draw(), draw())
		}
	}
	want := make([]complex128, r*m*s)
	goStage(st, want, x)
	got, intact := guarded(r * m * s)
	what := fmt.Sprintf("radix %d m=%d s=%d xs=%d", r, m, s, xs)
	has := s%2 == 0 && (r != 7 || m == 1) || r == 8 && s == 1 && xs == 1 && m%2 == 0
	ran := stageVec(st, got, x)
	if ran != has {
		t.Fatalf("%s: vector kernel ran %v, want %v", what, ran, has)
	}
	if !ran {
		return
	}
	if !intact() {
		t.Fatalf("%s: kernel wrote outside its %d outputs", what, r*m*s)
	}
	sameBits(t, what, got, want)
}

// TestSixStepProductsMatchGo pins the six-step's two vector products — the
// lane tile's dynamic-block twiddle pass and the fused demodulation of a
// full row group — to their Go loops, on every tile and row group of
// several splits, random and special operands.
func TestSixStepProductsMatchGo(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{64, 1 << 12, 7 << 10, 1 << 16} {
		s, err := NewSixStep(n, SixStepOpt, 1)
		if err != nil {
			t.Fatal(err)
		}
		n1, n2 := s.Split()
		for _, specials := range []bool{false, true} {
			draw := operandDraw(rng, specials)
			what := fmt.Sprintf("n=%d (%dx%d) specials=%v", n, n1, n2, specials)

			buf := carve(n1*tileCols, draw)
			for tile := 0; tile < n2/tileCols; tile++ {
				want := make([]complex128, n)
				func() {
					defer useKernel("portable")()
					s.twiddleTile(want, buf, tile*tileCols)
				}()
				got, intact := guarded(n)
				copy(got, want)
				for k1 := 0; k1 < n1; k1++ {
					row := got[k1*n2+tile*tileCols:][:tileCols]
					for c := range row {
						row[c] = complex(math.NaN(), 0)
					}
				}
				if !s.twiddleTileVec(got, buf, tile*tileCols) || !intact() {
					t.Fatalf("%s tile %d: twiddle kernel did not run or wrote outside w", what, tile)
				}
				sameBits(t, what+fmt.Sprintf(" twiddle tile %d", tile), got, want)
			}

			s.SetDemod(carve(n, draw))
			stride := n2 + rowPad
			rbuf := carve(stride*tileCols, draw)
			for lo := 0; lo+tileCols <= n1; lo += tileCols {
				want := make([]complex128, n)
				for k2 := 0; k2 < n2; k2++ {
					for r := 0; r < tileCols; r++ {
						want[lo+n1*k2+r] = rbuf[r*stride+k2] * s.demod[lo+n1*k2+r]
					}
				}
				got, intact := guarded(n)
				if !s.demodScatterVec(got, rbuf, lo, stride) || !intact() {
					t.Fatalf("%s rows %d+: demod kernel did not run or wrote outside dst", what, lo)
				}
				// Only the group's own elements are compared.
				for k2 := 0; k2 < n2; k2++ {
					g, w := got[lo+n1*k2:][:tileCols], want[lo+n1*k2:][:tileCols]
					sameBits(t, what+fmt.Sprintf(" demod rows %d+ k2=%d", lo, k2), g, w)
				}
			}
			s.SetDemod(nil)
		}
	}
}
