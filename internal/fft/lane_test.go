package fft

import (
	"testing"

	"soifft/internal/cvec"
	"soifft/internal/ref"
)

func TestLaneBatchMatchesSeparateTransforms(t *testing.T) {
	forEachKernel(t, laneBatchMatchesSeparateTransforms)
}

func laneBatchMatchesSeparateTransforms(t *testing.T) {
	for _, n := range []int{1, 4, 8, 12, 64, 7 * 32, 1024} {
		for _, lanes := range []int{1, 3, 8} {
			lb, err := NewLaneBatch(n, lanes)
			if err != nil {
				t.Fatalf("n=%d lanes=%d: %v", n, lanes, err)
			}
			// Interleave `lanes` random transforms.
			src := make([][]complex128, lanes)
			for l := range src {
				src[l] = ref.RandomVector(n, int64(n*lanes+l))
			}
			in := make([]complex128, n*lanes)
			for j := 0; j < n; j++ {
				for l := 0; l < lanes; l++ {
					in[j*lanes+l] = src[l][j]
				}
			}
			x := make([]complex128, n*lanes)
			lb.forwardFrom(x, in, lanes)
			p := MustPlan(n)
			for l := 0; l < lanes; l++ {
				want := make([]complex128, n)
				p.Forward(want, src[l])
				got := make([]complex128, n)
				cvec.GatherStride(got, x, l, lanes)
				if e := cvec.RelErrL2(got, want); e > 1e-13 {
					t.Errorf("n=%d lanes=%d lane %d: error %g", n, lanes, l, e)
				}
			}
		}
	}
}

func TestLaneBatchInverseRoundTrip(t *testing.T) {
	lb, err := NewLaneBatch(96, 8)
	if err != nil {
		t.Fatal(err)
	}
	x := ref.RandomVector(96*8, 9)
	orig := append([]complex128(nil), x...)
	lb.Transform(x, Forward)
	lb.Transform(x, Inverse)
	if e := cvec.RelErrL2(x, orig); e > 1e-13 {
		t.Errorf("lane round trip error %g", e)
	}
}

func TestLaneBatchRejectsRoughLengths(t *testing.T) {
	if _, err := NewLaneBatch(17, 8); err == nil {
		t.Error("prime 17 accepted")
	}
	if _, err := NewLaneBatch(0, 8); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewLaneBatch(8, 0); err == nil {
		t.Error("lanes=0 accepted")
	}
}

func BenchmarkLaneBatchVsSeparate(b *testing.B) {
	const n, lanes = 1024, 8
	lb, err := NewLaneBatch(n, lanes)
	if err != nil {
		b.Fatal(err)
	}
	x := ref.RandomVector(n*lanes, 1)
	out := make([]complex128, n*lanes)
	b.Run("lane-interleaved", func(b *testing.B) {
		b.SetBytes(int64(n*lanes) * 16)
		for i := 0; i < b.N; i++ {
			lb.forwardFrom(out, x, lanes)
		}
	})
	b.Run("separate-calls", func(b *testing.B) {
		p := MustPlan(n)
		b.SetBytes(int64(n*lanes) * 16)
		for i := 0; i < b.N; i++ {
			for l := 0; l < lanes; l++ {
				p.Forward(out[l*n:(l+1)*n], x[l*n:(l+1)*n])
			}
		}
	})
}
