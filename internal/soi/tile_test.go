package soi

import (
	"fmt"
	"math"
	"testing"

	"soifft/internal/conv"
	"soifft/internal/cvec"
	"soifft/internal/fft"
	"soifft/internal/ref"
	"soifft/internal/window"
)

// stagedForward is the pipeline Forward ran before stages 1 to 3 became one
// tiled pass, rebuilt from the layers' exported functions: the input copied
// whole and extended circularly, conv.Apply into a full-length u, the
// Segments-point batch over u, cvec.Transpose into t, FinishSegment per
// segment. conj selects Inverse's conjugation identity around it.
func stagedForward(t *testing.T, pl *Plan, dst, src []complex128, conj bool) {
	t.Helper()
	p := pl.Win.Params
	np, mp, m := p.MPrime()*p.Segments, p.MPrime(), p.M()
	xx := make([]complex128, p.N+p.GhostElems())
	for i := range xx {
		xx[i] = src[i%p.N]
		if conj {
			xx[i] = complex(real(xx[i]), -imag(xx[i]))
		}
	}
	u := make([]complex128, np)
	conv.Apply(pl.opts.ConvVariant, pl.Win, u, xx, 0, p.Chunks(), 1)
	fp, err := fft.NewBatch(p.Segments, 1)
	if err != nil {
		t.Fatal(err)
	}
	fp.Transform(u, u, p.Chunks()*p.NMu, p.Segments, fft.Forward)
	tt := make([]complex128, np)
	cvec.Transpose(tt, u, mp, p.Segments)
	y := make([]complex128, mp)
	for f := 0; f < p.Segments; f++ {
		pl.FinishSegment(dst[f*m:(f+1)*m], tt[f*mp:(f+1)*mp], y)
	}
	if conj {
		inv := 1 / float64(p.N)
		for i, v := range dst[:p.N] {
			dst[i] = complex(real(v)*inv, -imag(v)*inv)
		}
	}
}

// firstBitDiff returns the first index at which a and b differ in any bit,
// or -1.
func firstBitDiff(a, b []complex128) int {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return i
		}
	}
	return -1
}

// TestTiledPassMatchesStagedPipeline: the tiled pass decides where the
// convolution's outputs live between stages, never what they are. Over the
// tile-edge geometries (T is conv.TileChunks) and every convolution variant,
// Forward and Inverse equal the staged pipeline bit for bit.
func TestTiledPassMatchesStagedPipeline(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    window.Params
	}{
		// T = 64, 8 chunks: 5 interior and 3 tail, each a partial tile.
		{"chunks<T", window.Params{N: 4 * 56, Segments: 4, NMu: 8, DMu: 7, B: 24}},
		// T = 64, 64 chunks: 61 interior and 3 tail, each a single tile.
		{"single tile", window.Params{N: 4 * 448, Segments: 4, NMu: 8, DMu: 7, B: 24}},
		// T = 32, 40 chunks of which 37 interior: tiles of 32 and 5.
		{"chunks%T!=0", window.Params{N: 8 * 280, Segments: 8, NMu: 8, DMu: 7, B: 24}},
		// S = 64 at mu = 3/2: T = 10, 64 chunks of which 53 interior (tiles
		// of 10 and a 3) and 11 tail, more than a tile (10 and 1).
		{"S=64,tail>T", window.Params{N: 64 * 128, Segments: 64, NMu: 3, DMu: 2, B: 24}},
		// Smallest legal S for mu = 8/7 and for mu = 3/2.
		{"S=2", window.Params{N: 2 * 28, Segments: 2, NMu: 8, DMu: 7, B: 16}},
		{"S=3", window.Params{N: 3 * 12, Segments: 3, NMu: 3, DMu: 2, B: 8}},
		// No interior chunk, and a ghost longer than the input itself.
		{"ghost>N", window.Params{N: 2 * 14, Segments: 2, NMu: 8, DMu: 7, B: 24}},
	} {
		win, err := window.Design(tc.p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		x := ref.RandomVector(tc.p.N, 41)
		for _, cv := range conv.AllVariants {
			name := fmt.Sprintf("%s/%v", tc.name, cv)
			pl, err := NewPlanFromFilter(win, Options{Workers: 3, ConvVariant: cv, FFTVariant: fft.SixStepOpt})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, want := make([]complex128, tc.p.N), make([]complex128, tc.p.N)
			for _, inverse := range []bool{false, true} {
				transform := pl.Forward
				if inverse {
					transform = pl.Inverse
				}
				if err := transform(got, x); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				stagedForward(t, pl, want, x, inverse)
				if i := firstBitDiff(got, want); i >= 0 {
					t.Errorf("%s inverse=%v: output[%d] = %v, staged pipeline %v", name, inverse, i, got[i], want[i])
				}
			}
		}
	}
}
