package fft

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"soifft/internal/cpu"
	"soifft/internal/ref"
)

// kernels names the stage kernels the host can execute: "avx512" (the
// 512-bit radix-8 stage where its stride allows, the AVX2 kernels
// elsewhere) when the processor has AVX-512F besides AVX2, "avx2" when it
// has AVX2, and "portable" (the Go twins) always.
func kernels() []string {
	switch {
	case cpu.AVX2 && cpu.AVX512F:
		return []string{"avx512", "avx2", "portable"}
	case cpu.AVX2:
		return []string{"avx2", "portable"}
	}
	return []string{"portable"}
}

// kernelInUse names the kernel set the package runs now.
func kernelInUse() string {
	switch {
	case haveAVX512:
		return "avx512"
	case haveAVX2:
		return "avx2"
	}
	return "portable"
}

// useKernel makes the named kernels the ones the package runs and returns
// the function that puts the host's own choice back. It is the only place
// that assigns haveAVX2 and haveAVX512.
func useKernel(name string) (restore func()) {
	avx2, avx512 := haveAVX2, haveAVX512
	haveAVX2, haveAVX512 = name != "portable", name == "avx512"
	return func() { haveAVX2, haveAVX512 = avx2, avx512 }
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

// TestStageKernelsMatchGo pins every vector Stockham stage to its Go twin
// bit for bit, under each vector kernel set the host has: radix 2, 4 and 8
// at m = 1…64 and radix 7 at m = 1 (its only vector pass, untwiddled; m = 2
// checks that none is picked), at strides s ∈ {1, 2, 3, 4, 8, 12, 64, 256},
// and under "avx512" radix 8 again at s ≤ 64 (the 512-bit stage at the
// multiples of four, the AVX2 kernels elsewhere); each at its own read
// stride and at wider ones (the six-step's first column pass reads at
// xs = n2), on random operands and on operands mixed with ±0, ±Inf, NaN and
// denormals. Operands sit in NaN-filled buffers and outputs between
// sentinels, so a read or write one element out of range fails. Shapes
// without a vector kernel must say so.
func TestStageKernelsMatchGo(t *testing.T) {
	needAVX2(t)
	ks := kernels()
	for _, k := range ks[:len(ks)-1] { // all but "portable"
		t.Run(k, func(t *testing.T) {
			defer useKernel(k)()
			rng := rand.New(rand.NewSource(28))
			radices, strides := []int{2, 4, 7, 8}, []int{1, 2, 3, 4, 8, 12, 64, 256}
			if k == "avx512" {
				// The other radices run the AVX2 kernels in both sets, and
				// s = 256 is s = 64's loop run longer.
				radices, strides = []int{8}, []int{1, 2, 4, 8, 12, 64}
			}
			for _, r := range radices {
				for _, s := range strides {
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
		})
	}
}

func checkStage(t *testing.T, r, m, s, xs int, draw func() float64, rng *rand.Rand) {
	t.Helper()
	st := &stage{r: r, m: m, s: s, rs: xs, tw: carve((r-1)*m, func() float64 { return rng.NormFloat64() })}
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

// TestForwardDemodulateMatchesPlan pins ForwardDemodulate to Forward then
// demodulate bit for bit, on every kernel the host has: at the lengths whose
// last pass is radix 2 (fused) and at lengths and projections that fall
// back, for outputs from half the spectrum to all of it (odd counts end the
// vector pass early), each into a dst at every 16-byte offset of a 64-byte
// line (the fused pass streams dst where it is 32-byte aligned and would
// fault on the other two offsets); and the fused pass's vector kernel to
// its Go loop on random and special operands.
func TestForwardDemodulateMatchesPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	forEachKernel(t, func(t *testing.T) {
		for _, n := range []int{128, 1024, 8192, 1 << 16, 4096, 7 << 10} {
			p := MustPlan(n)
			src := ref.RandomVector(n, int64(n))
			d := ref.RandomVector(n, int64(n+1))
			for _, m := range []int{n / 2, n/2 + 1, n/2 + 2, n / 8 * 7, n - 1, n, n/2 - 2} {
				want := make([]complex128, n)
				p.Forward(want, src)
				demodulate(want[:m], want, d)
				for off := 0; off < 4; off++ {
					what := fmt.Sprintf("n=%d m=%d dst 16*%d bytes into a line", n, m, off)
					got, intact := guardedAt(m, off)
					p.ForwardDemodulate(got, slices.Clone(src), make([]complex128, n), d)
					if !intact() {
						t.Fatalf("%s: wrote outside dst", what)
					}
					sameBits(t, what, got, want[:m])
				}
			}
		}
	})
	needAVX2(t)
	for _, specials := range []bool{false, true} {
		draw := operandDraw(rng, specials)
		for _, m := range []int{32, 34, 36, 48, 64} {
			x, d := carve(64, draw), carve(m, draw)
			w := complex(draw(), draw())
			want := make([]complex128, m)
			func() {
				defer useKernel("portable")()
				radix2Demodulate(want, x, w, d)
			}()
			got, intact := guarded(m)
			if radix2DemodulateVec(got, x, w, d) != 32 || !intact() {
				t.Fatalf("m=%d: vector kernel did not run or wrote outside dst", m)
			}
			sameBits(t, fmt.Sprintf("m=%d specials=%v", m, specials), got, want)
		}
	}
}

// guardedAt is guarded with the output starting off*16 bytes past a 64-byte
// boundary.
func guardedAt(n, off int) (y []complex128, intact func() bool) {
	const guard = complex(0x5a5a, -0x5a5a)
	buf := make([]complex128, n+8)
	for i := range buf {
		buf[i] = guard
	}
	lo := (4-int(uintptr(unsafe.Pointer(&buf[0]))%64)/16)%4 + off
	return buf[lo : lo+n : lo+n], func() bool {
		for i, v := range buf {
			if (i < lo || i >= lo+n) && v != guard {
				return false
			}
		}
		return true
	}
}

// TestWideStagePays holds the 512-bit radix-8 stage to the rule it shipped
// under: on the radix-8 stages it runs of an 8192-point plan (s = 8, 64 and
// 512), hot in cache, the geometric mean of its speed-ups over radix8AVX2
// must be at least minGain. A kernel that still gives the right bits but
// lost its speed — a twiddle reloaded per step, a register spilled, a
// dispatch that falls through to the AVX2 kernel — passes every other test.
// The times are the best of several interleaved rounds in this one process,
// so a host that drifts moves both kernels alike. On a 2-vCPU Xeon host with
// AVX-512 the stages read 1.2–1.6x, the mean about 1.35x.
//
// It times code, so tier-1 skips it; it runs when -run names it, which
// scripts/check.sh does.
func TestWideStagePays(t *testing.T) {
	if !strings.Contains(flag.Lookup("test.run").Value.String(), "TestWideStagePays") {
		t.Skip("times the radix-8 kernels; run it by name: go test ./internal/fft -run TestWideStagePays")
	}
	if !cpu.AVX2 || !cpu.AVX512F {
		t.Skip("processor or OS without AVX-512F: the 512-bit stage does not run here")
	}
	const (
		n       = 8192
		rounds  = 15
		calls   = 200
		minGain = 1.3
	)
	p := MustPlan(n)
	x := ref.RandomVector(n, 1)
	y := make([]complex128, n)
	logGain, stages := 0.0, 0
	for i := range p.stages {
		st := &p.stages[i]
		if st.r != 8 || st.s%4 != 0 {
			continue
		}
		var best [2]time.Duration
		for round := 0; round < rounds; round++ {
			for j, k := range []string{"avx512", "avx2"} {
				restore := useKernel(k)
				start := time.Now()
				for c := 0; c < calls; c++ {
					runStage(st, y, x)
				}
				if el := time.Since(start); best[j] == 0 || el < best[j] {
					best[j] = el
				}
				restore()
			}
		}
		perButterfly := func(j int) float64 {
			return float64(best[j].Nanoseconds()) / float64(calls*st.m*st.s)
		}
		gain := float64(best[1]) / float64(best[0])
		t.Logf("s=%d: avx512 %.2f ns/butterfly, avx2 %.2f: %.2fx", st.s, perButterfly(0), perButterfly(1), gain)
		logGain += math.Log(gain)
		stages++
	}
	if stages == 0 {
		t.Fatal("the 8192-point plan has no radix-8 stage at a stride that is a multiple of four")
	}
	gain := math.Exp(logGain / float64(stages))
	t.Logf("geometric mean over %d stages: %.2fx (bound %.1f)", stages, gain, minGain)
	if gain < minGain {
		t.Errorf("the 512-bit radix-8 stage is %.2fx radix8AVX2, under the %.1fx it ships for", gain, minGain)
	}
}
