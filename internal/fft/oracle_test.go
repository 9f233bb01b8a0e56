package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"soifft/internal/cvec"
	"soifft/internal/ref"
)

// The differential kernel-oracle suite. One table drives every algorithm
// (Plan, both SixStep variants) in every direction against oracles of
// known answers:
//
//   - the dense O(n^2) reference DFT from internal/ref, for every size
//     where it is affordable (n <= denseOracleMax);
//   - analytic closed forms (shifted impulse, tone combs) that are exact at
//     any size, covering the Fig. 11 geometry sizes where the dense oracle
//     is out of reach.
//
// This replaces the per-kernel ad-hoc comparisons that used to live in
// plan_test.go and sixstep_test.go: a new variant gets full oracle coverage
// by appearing in oracleEngines.

const (
	// crossTol bounds the disagreement of a lane of a LaneBatch with the
	// Plan of the same length: same radices, different stage strides.
	crossTol = 1e-12
	// denseOracleMax is the largest size the O(n^2) dense oracle runs at.
	denseOracleMax = 2048
)

// Size classes. Smooth sizes exercise every radix mix and the codelet
// dispatch (n = 1, 2 included as the degenerate edges); rough sizes route
// through Bluestein; the large sizes are the two Fig. 11 geometry points
// N = S^2*7*64 for S = 8 and 32, where only the analytic oracles apply.
var (
	oracleSmoothSizes = []int{
		1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 15, 16,
		20, 21, 24, 25, 26, 27, 30, 32, 35, 44, 49, 52, 55, 60, 64,
		100, 121, 125, 128, 144, 169, 210, 256, 343, 360, 512,
		1001, 1024, 1280, 1792, 2048,
	}
	oracleRoughSizes = []int{17, 19, 23, 29, 31, 37, 41, 97, 101, 257, 509, 1009, 2003}
	oracleLargeSizes = []int{28672, 458752}
)

// oracleEngine is one (algorithm, variant) under test: its entry point and
// the directions it implements.
type oracleEngine struct {
	name string
	dirs []Direction
	run  func(dst, src []complex128, dir Direction)
}

// oracleEngines builds every engine applicable to size n.
func oracleEngines(t *testing.T, n int) []oracleEngine {
	t.Helper()
	p := MustPlan(n)
	engines := []oracleEngine{{
		name: "plan",
		dirs: []Direction{Forward, Inverse},
		run:  p.Transform,
	}}
	if n < 4 {
		return engines
	}
	for _, v := range AllVariants {
		s, err := NewSixStep(n, v, 4)
		if err != nil {
			return engines // prime n: no 2D split for any variant
		}
		engines = append(engines, oracleEngine{
			name: fmt.Sprintf("6step/%v", v),
			dirs: []Direction{Forward}, // SixStep is forward-only
			run:  func(dst, src []complex128, _ Direction) { s.Forward(dst, src) },
		})
	}
	return engines
}

// oracleInput is one stimulus with its exact expected spectra (nil when no
// oracle of that direction/kind applies at this size).
type oracleInput struct {
	name string
	x    []complex128
	want map[Direction][]complex128
}

// oracleInputs builds the stimuli for size n.
func oracleInputs(n int) []oracleInput {
	var ins []oracleInput

	// Random data against the dense oracle where affordable.
	rnd := oracleInput{name: "random", x: ref.RandomVector(n, int64(n)), want: map[Direction][]complex128{}}
	if n <= denseOracleMax {
		rnd.want[Forward] = ref.DFT(rnd.x)
		rnd.want[Inverse] = ref.IDFT(rnd.x)
	}
	ins = append(ins, rnd)

	// Shifted impulse: exact closed form at every bin and any size.
	// DFT(delta_p)[k] = W_n^{kp}; IDFT(delta_p)[k] = conj(W_n^{kp})/n.
	pos := (n / 3) % n
	fw := make([]complex128, n)
	iw := make([]complex128, n)
	inv := 1 / float64(n)
	for k := 0; k < n; k++ {
		w := cmplx.Exp(complex(0, -2*math.Pi*float64(int64(k)*int64(pos)%int64(n))/float64(n)))
		fw[k] = w
		iw[k] = complex(real(w)*inv, -imag(w)*inv)
	}
	ins = append(ins, oracleInput{
		name: "impulse",
		x:    ref.Impulse(n, pos),
		want: map[Direction][]complex128{Forward: fw, Inverse: iw},
	})

	// Tone comb: spikes of height n*a_j at the excited bins (forward) and
	// a_j at the mirrored bins (inverse).
	freqs := []int{0}
	amps := []complex128{complex(0.5, -1)}
	if n >= 8 {
		freqs = append(freqs, 1, 2*n/5, n-1)
		amps = append(amps, complex(-1, 0.25), complex(2, 1), complex(0, -0.75))
	}
	tf := make([]complex128, n)
	ti := make([]complex128, n)
	for j, f := range freqs {
		tf[f] += complex(float64(n), 0) * amps[j]
		ti[(n-f)%n] += amps[j]
	}
	ins = append(ins, oracleInput{
		name: "tones",
		x:    ref.Tones(n, freqs, amps),
		want: map[Direction][]complex128{Forward: tf, Inverse: ti},
	})

	// All-zero input: the fixed point of every linear transform.
	ins = append(ins, oracleInput{
		name: "zero",
		x:    make([]complex128, n),
		want: map[Direction][]complex128{Forward: make([]complex128, n), Inverse: make([]complex128, n)},
	})
	return ins
}

func dirName(d Direction) string {
	if d == Inverse {
		return "inverse"
	}
	return "forward"
}

// runOracleSize drives every engine x direction x stimulus at one size.
func runOracleSize(t *testing.T, n int) {
	engines := oracleEngines(t, n)
	inputs := oracleInputs(n)
	for _, eng := range engines {
		for _, dir := range eng.dirs {
			for _, in := range inputs {
				want := in.want[dir]
				got := make([]complex128, n)
				eng.run(got, in.x, dir)
				if want != nil {
					if e := cvec.RelErrL2(got, want); e > ref.FFTBound(n) {
						t.Errorf("%s/%s/%s n=%d: relerr %g vs oracle, bound %g", eng.name, dirName(dir), in.name, n, e, ref.FFTBound(n))
					}
				}
			}
		}
	}
}

// forEachKernel runs body once per kernel set the host can execute (the AVX2
// stages and their Go twins, or the twins alone), as subtests named after it.
func forEachKernel(t *testing.T, body func(t *testing.T)) {
	for _, k := range kernels() {
		t.Run(k, func(t *testing.T) {
			defer useKernel(k)()
			body(t)
		})
	}
}

func TestKernelOracleSmooth(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		for _, n := range oracleSmoothSizes {
			runOracleSize(t, n)
		}
	})
}

func TestKernelOracleBluestein(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		for _, n := range oracleRoughSizes {
			runOracleSize(t, n)
		}
	})
}

func TestKernelOracleFig11Sizes(t *testing.T) {
	if testing.Short() {
		t.Skip("large sizes skipped in -short mode")
	}
	forEachKernel(t, func(t *testing.T) {
		for _, n := range oracleLargeSizes {
			runOracleSize(t, n)
		}
	})
}

// TestKernelOracleLaneBatch drives the lane-interleaved batch kernel against
// the (oracle-verified) Plan on each deinterleaved lane: forward through
// forwardFrom, the six-step's entry, and inverse through the in-place
// Transform.
func TestKernelOracleLaneBatch(t *testing.T) {
	forEachKernel(t, runOracleLaneBatch)
}

func runOracleLaneBatch(t *testing.T) {
	cases := [][2]int{
		{1, 4}, {2, 3}, {4, 8}, {8, 8}, {16, 5}, {64, 8},
		{120, 3}, {128, 16}, {360, 2}, {448, 8},
	}
	for _, c := range cases {
		n, lanes := c[0], c[1]
		lb, err := NewLaneBatch(n, lanes)
		if err != nil {
			t.Fatalf("NewLaneBatch(%d,%d): %v", n, lanes, err)
		}
		p := MustPlan(n)
		x := ref.RandomVector(n*lanes, int64(n*lanes))
		for _, dir := range []Direction{Forward, Inverse} {
			got := append([]complex128(nil), x...)
			if dir == Forward {
				lb.forwardFrom(got, x, lanes)
			} else {
				lb.Transform(got, dir)
			}
			col := make([]complex128, n)
			want := make([]complex128, n)
			for l := 0; l < lanes; l++ {
				cvec.GatherStride(col, x, l, lanes)
				p.Transform(want, col, dir)
				cvec.GatherStride(col, got, l, lanes)
				if e := cvec.RelErrL2(col, want); e > crossTol {
					t.Errorf("lane n=%d lanes=%d %s lane %d: relerr %g vs plan", n, lanes, dirName(dir), l, e)
				}
			}
		}
	}
}

// firstBitDiff returns the first index at which a and b differ in any bit
// (NaN payloads and signed zeros included), or -1.
func firstBitDiff(a, b []complex128) int {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return i
		}
	}
	return -1
}
