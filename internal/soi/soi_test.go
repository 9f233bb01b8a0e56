package soi

import (
	"math"
	"math/cmplx"
	"sync"
	"testing"
	"testing/quick"

	"soifft/internal/conv"
	"soifft/internal/cvec"
	"soifft/internal/fft"
	"soifft/internal/ref"
	"soifft/internal/window"
)

// paperParams: mu=8/7, B=72 — the paper's production configuration at a
// test-friendly N. Accuracy depends on (mu-1)*B, not N.
func paperParams(segments, chunks int) window.Params {
	m := 7 * segments * chunks
	return window.Params{N: m * segments, Segments: segments, NMu: 8, DMu: 7, B: 72}
}

func fftReference(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	fft.MustPlan(len(x)).Forward(out, x)
	return out
}

func TestForwardMatchesFFTPaperParams(t *testing.T) {
	p := paperParams(4, 16) // N = 1792
	pl, err := NewPlan(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	x := ref.RandomVector(p.N, 42)
	got := make([]complex128, p.N)
	if err := pl.Forward(got, x); err != nil {
		t.Fatal(err)
	}
	want := fftReference(x)
	e := cvec.RelErrL2(got, want)
	if e > 1e-7 {
		t.Errorf("SOI error vs FFT: %g (designed alias bound %g)", e, pl.EstimatedError())
	}
	// The designed bound is an upper bound on the measured error.
	if e > pl.EstimatedError() {
		t.Errorf("measured error %g exceeds the designed bound %g", e, pl.EstimatedError())
	}
}

func TestForwardMatchesReferenceDFTSmall(t *testing.T) {
	// Independent O(N^2) ground truth on a small problem.
	p := window.Params{N: 448, Segments: 2, NMu: 8, DMu: 7, B: 48}
	pl, err := NewPlan(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	x := ref.RandomVector(p.N, 7)
	got := make([]complex128, p.N)
	if err := pl.Forward(got, x); err != nil {
		t.Fatal(err)
	}
	if e := cvec.RelErrL2(got, ref.DFT(x)); e > 1e-5 {
		t.Errorf("error vs reference DFT: %g", e)
	}
}

func TestAllOptionCombinations(t *testing.T) {
	p := paperParams(4, 4) // N = 448... segments=4, chunks=4: M=112, N=448
	x := ref.RandomVector(p.N, 3)
	want := fftReference(x)
	for _, cv := range conv.AllVariants {
		for _, fv := range fft.AllVariants {
			opts := Options{ConvVariant: cv, FFTVariant: fv, Workers: 2}
			pl, err := NewPlan(p, opts)
			if err != nil {
				t.Fatalf("%v/%v: %v", cv, fv, err)
			}
			got := make([]complex128, p.N)
			if err := pl.Forward(got, x); err != nil {
				t.Fatal(err)
			}
			if e := cvec.RelErrL2(got, want); e > 1e-6 {
				t.Errorf("conv=%v fft=%v: error %g", cv, fv, e)
			}
		}
	}
}

// TestZeroOptionsAreTheDefaults: Options that set only Workers select the
// strategies DefaultOptions names, so a caller who leaves the variants unset
// gets the production plan, not the Fig. 10/11 baselines.
func TestZeroOptionsAreTheDefaults(t *testing.T) {
	got, want := Options{Workers: 1}, DefaultOptions()
	want.Workers = 1
	if got != want {
		t.Errorf("Options{Workers: 1} selects conv=%v fft=%v, DefaultOptions conv=%v fft=%v",
			got.ConvVariant, got.FFTVariant, want.ConvVariant, want.FFTVariant)
	}
}

func TestMu54(t *testing.T) {
	// mu = 5/4 with B=72: deeper stopband than 8/7.
	segments, chunks := 4, 16
	m := 4 * segments * chunks
	p := window.Params{N: m * segments, Segments: segments, NMu: 5, DMu: 4, B: 72}
	pl, err := NewPlan(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	x := ref.RandomVector(p.N, 11)
	got := make([]complex128, p.N)
	if err := pl.Forward(got, x); err != nil {
		t.Fatal(err)
	}
	if e := cvec.RelErrL2(got, fftReference(x)); e > 1e-9 {
		t.Errorf("mu=5/4 error %g", e)
	}
}

func TestErrorDecreasesWithB(t *testing.T) {
	segments, chunks := 4, 8
	m := 7 * segments * chunks
	base := window.Params{N: m * segments, Segments: segments, NMu: 8, DMu: 7}
	x := ref.RandomVector(base.N, 13)
	want := fftReference(x)
	prev := 1.0
	for _, b := range []int{12, 24, 48} {
		p := base
		p.B = b
		pl, err := NewPlan(p, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		got := make([]complex128, p.N)
		if err := pl.Forward(got, x); err != nil {
			t.Fatal(err)
		}
		e := cvec.RelErrL2(got, want)
		if !(e < prev) {
			t.Errorf("B=%d: error %g did not improve on %g", b, e, prev)
		}
		prev = e
	}
}

func TestInverseRoundTrip(t *testing.T) {
	p := paperParams(4, 8)
	pl, err := NewPlan(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	x := ref.RandomVector(p.N, 17)
	y := make([]complex128, p.N)
	z := make([]complex128, p.N)
	if err := pl.Forward(y, x); err != nil {
		t.Fatal(err)
	}
	if err := pl.Inverse(z, y); err != nil {
		t.Fatal(err)
	}
	if e := cvec.RelErrL2(z, x); e > 1e-6 {
		t.Errorf("round-trip error %g", e)
	}
}

func TestSegmentOutputsAreInOrder(t *testing.T) {
	// A tone at bin k must appear in segment k/M at local position k%M:
	// SOI produces an in-order transform, the hard part of distributed
	// 1D FFT the paper emphasizes.
	p := paperParams(4, 8)
	pl, err := NewPlan(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := p.M()
	for _, bin := range []int{0, 1, m - 1, m, 2*m + 5, p.N - 1} {
		x := ref.Tones(p.N, []int{bin}, []complex128{1})
		got := make([]complex128, p.N)
		if err := pl.Forward(got, x); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < p.N; k++ {
			want := complex(0, 0)
			if k == bin {
				want = complex(float64(p.N), 0)
			}
			if cmplx.Abs(got[k]-want) > 1e-5*float64(p.N) {
				t.Fatalf("bin %d: output[%d] = %v, want %v", bin, k, got[k], want)
			}
		}
	}
}

func TestShortBufferError(t *testing.T) {
	p := paperParams(2, 4)
	pl, err := NewPlan(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Forward(make([]complex128, 3), make([]complex128, p.N)); err == nil {
		t.Error("expected error for short dst")
	}
	if err := pl.Forward(make([]complex128, p.N), make([]complex128, 3)); err == nil {
		t.Error("expected error for short src")
	}
	if err := pl.Inverse(make([]complex128, p.N), make([]complex128, 3)); err == nil {
		t.Error("expected error for short inverse src")
	}
}

func TestQuickRandomParams(t *testing.T) {
	// Random valid parameter tuples must stay within their designed bound.
	fn := func(segSel, chunkSel uint8, seed int64) bool {
		segments := []int{2, 4}[int(segSel)%2]
		chunks := 4 + int(chunkSel)%8
		p := paperParams(segments, chunks)
		pl, err := NewPlan(p, DefaultOptions())
		if err != nil {
			return false
		}
		x := ref.RandomVector(p.N, seed)
		got := make([]complex128, p.N)
		if err := pl.Forward(got, x); err != nil {
			return false
		}
		e := cvec.RelErrL2(got, fftReference(x))
		return e <= pl.EstimatedError()
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestSingleSegmentRejected(t *testing.T) {
	// Segments=1 is structurally invalid: the prototype's spectral support
	// (band + two transitions, width (2*mu-1)*M) exceeds the whole period
	// N = M, so aliasing images overlap the band and no window separates
	// them. The validator must reject it rather than produce a silently
	// inaccurate plan.
	p := window.Params{N: 7 * 64, Segments: 1, NMu: 8, DMu: 7, B: 48}
	if _, err := NewPlan(p, DefaultOptions()); err == nil {
		t.Fatal("segments=1 accepted; it cannot be computed accurately")
	}
	// mu=2 needs more segments still: Segments > 3.
	bad := window.Params{N: 3 * 3 * 1 * 12, Segments: 3, NMu: 2, DMu: 1, B: 24}
	if err := bad.Validate(); err == nil {
		t.Error("segments=3 with mu=2 accepted (needs > 3)")
	}
}

func TestEstimatedErrorCoversMeasured(t *testing.T) {
	// The designed bound must cover the measured error across
	// configurations and inputs — the contract EstimatedError documents —
	// with no slack factor: a point above it is a bug in the bound.
	worst := 0.0
	for _, tc := range []window.Params{
		{N: 4 * 448, Segments: 4, NMu: 8, DMu: 7, B: 72},
		{N: 8 * 448, Segments: 8, NMu: 8, DMu: 7, B: 72},
		{N: 16 * 896, Segments: 16, NMu: 8, DMu: 7, B: 72},
		{N: 4 * 448, Segments: 4, NMu: 8, DMu: 7, B: 32},
		{N: 4 * 448, Segments: 4, NMu: 8, DMu: 7, B: 48},
		{N: 4 * 512, Segments: 4, NMu: 5, DMu: 4, B: 48},
		{N: 8 * 512, Segments: 8, NMu: 5, DMu: 4, B: 72},
	} {
		pl, err := NewPlan(tc, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		got := make([]complex128, tc.N)
		for seed := int64(31); seed < 36; seed++ {
			x := ref.RandomVector(tc.N, seed)
			if err := pl.Forward(got, x); err != nil {
				t.Fatal(err)
			}
			e := cvec.RelErrL2(got, fftReference(x))
			worst = max(worst, e/pl.EstimatedError())
			if e > pl.EstimatedError() {
				t.Errorf("%+v seed %d: measured %g exceeds the designed bound %g", tc, seed, e, pl.EstimatedError())
			}
		}
	}
	t.Logf("largest measured/estimated error: %.3g", worst)
}

func TestWorkerCountsAgree(t *testing.T) {
	// The unit of parallel work in stages 1-3 is the tile, not the lane: at
	// S = 16 a tile is 16 chunks and the 64 chunks make 4 interior tiles
	// and 1 tail tile, so S+1 workers and 64 workers (more than tiles) both
	// exceed what there is to split. Stage 4's unit is the segment, S of
	// them on the plain plan.
	for _, p := range []window.Params{paperParams(4, 8), paperParams(16, 4)} {
		win, err := window.Design(p)
		if err != nil {
			t.Fatal(err)
		}
		x := ref.RandomVector(p.N, 37)
		var ref1 []complex128
		for _, workers := range []int{1, 2, 3, 4, p.Segments + 1, 64} {
			opts := DefaultOptions()
			opts.Workers = workers
			pl, err := NewPlanFromFilter(win, opts)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]complex128, p.N)
			if err := pl.Forward(got, x); err != nil {
				t.Fatal(err)
			}
			if ref1 == nil {
				ref1 = got
				continue
			}
			if e := cvec.RelErrL2(got, ref1); e != 0 {
				t.Errorf("S=%d workers=%d: results differ by %g (parallelization must be bitwise deterministic)", p.Segments, workers, e)
			}
		}
	}
}

// TestForwardIntoUnalignedDst runs Forward into a dst sliced at element 1 of
// its allocation, 16 bytes off the 32-byte alignment at which the segment
// FFT's fused last pass stores its output non-temporally, and into a dst at
// element 0 of another: each segment's output must be the same bits either
// way, and the element before the sliced dst untouched. M' = 1024 and 128
// end in the fused radix-2 pass.
func TestForwardIntoUnalignedDst(t *testing.T) {
	for _, p := range []window.Params{paperParams(8, 16), paperParams(4, 4)} {
		pl, err := NewPlan(p, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		x := ref.RandomVector(p.N, 49)
		want := make([]complex128, p.N)
		if err := pl.Forward(want, x); err != nil {
			t.Fatal(err)
		}
		const guard = complex(0x5a5a, -0x5a5a)
		buf := make([]complex128, p.N+1)
		buf[0] = guard
		got := buf[1:]
		if err := pl.Forward(got, x); err != nil {
			t.Fatal(err)
		}
		if buf[0] != guard {
			t.Errorf("N=%d: Forward wrote the element before dst", p.N)
		}
		for i := range want {
			g, w := got[i], want[i]
			if math.Float64bits(real(g)) != math.Float64bits(real(w)) || math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
				t.Fatalf("N=%d: bin %d is %v into dst at element 1, %v at element 0", p.N, i, got[i], want[i])
			}
		}
	}
}

// TestConcurrentTransformsOnOnePlan: a plan's pooled scratch must never be
// shared between transforms in flight. Four goroutines run eight transforms
// each on one plan (forward and inverse alternating, so both borrowers of
// the pool meet), every result checked against fft.Plan; run under -race.
func TestConcurrentTransformsOnOnePlan(t *testing.T) {
	p := paperParams(4, 8)
	pl, err := NewPlan(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	exact := fft.MustPlan(p.N)
	tol := pl.EstimatedError()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, want := make([]complex128, p.N), make([]complex128, p.N)
			for i := 0; i < 8; i++ {
				x := ref.RandomVector(p.N, int64(100*g+i))
				transform, reference := pl.Forward, exact.Forward
				if i%2 == 1 {
					transform, reference = pl.Inverse, exact.Inverse
				}
				if err := transform(got, x); err != nil {
					t.Error(err)
					return
				}
				reference(want, x)
				if e := cvec.RelErrL2(got, want); !(e <= tol) {
					t.Errorf("goroutine %d transform %d: rel err %g above the designed bound %g", g, i, e, tol)
				}
			}
		}(g)
	}
	wg.Wait()
}
