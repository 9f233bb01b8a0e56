package cvec

import (
	"math"
	"testing"
	"testing/quick"
)

func seqVec(n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(float64(i), float64(-i)*0.5)
	}
	return x
}

func TestGatherStride(t *testing.T) {
	src := seqVec(24)
	dst := make([]complex128, 6)
	GatherStride(dst, src, 1, 4)
	for i := range dst {
		if dst[i] != src[1+4*i] {
			t.Fatalf("GatherStride[%d]", i)
		}
	}
}

func TestTransposeMatchesNaive(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {3, 5}, {8, 8}, {13, 7}, {16, 64}, {33, 17}} {
		r, c := dims[0], dims[1]
		src := seqVec(r * c)
		a := make([]complex128, r*c)
		b := make([]complex128, r*c)
		Transpose(a, src, r, c)
		TransposeNaive(b, src, r, c)
		if MaxAbsDiff(a, b) != 0 {
			t.Fatalf("%dx%d: blocked transpose differs from naive", r, c)
		}
		// Double transpose is identity.
		back := make([]complex128, r*c)
		Transpose(back, a, c, r)
		if MaxAbsDiff(back, src) != 0 {
			t.Fatalf("%dx%d: transpose not involutive", r, c)
		}
	}
}

func TestTransposeShortBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Transpose(make([]complex128, 3), make([]complex128, 4), 2, 2)
}

func TestNorms(t *testing.T) {
	x := []complex128{3 + 4i, 0}
	if got := L2Norm(x); got != 5 {
		t.Fatalf("L2Norm = %v", got)
	}
	a := []complex128{1, 2}
	b := []complex128{1, 2 + 1e-8i}
	if d := MaxAbsDiff(a, b); math.Abs(d-1e-8) > 1e-20 {
		t.Fatalf("MaxAbsDiff = %v", d)
	}
	if e := RelErrL2(a, a); e != 0 {
		t.Fatalf("RelErrL2 self = %v", e)
	}
	if e := RelErrL2(a, []complex128{0, 0}); math.Abs(e-math.Sqrt(5)) > 1e-15 {
		t.Fatalf("RelErrL2 vs zero = %v", e)
	}
}

func TestQuickTransposeInvolution(t *testing.T) {
	f := func(rows, cols uint8, seed int64) bool {
		r := int(rows)%40 + 1
		c := int(cols)%40 + 1
		src := make([]complex128, r*c)
		for i := range src {
			src[i] = complex(float64((seed+int64(i))%97), float64(i%13))
		}
		tmp := make([]complex128, r*c)
		back := make([]complex128, r*c)
		Transpose(tmp, src, r, c)
		Transpose(back, tmp, c, r)
		return MaxAbsDiff(back, src) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
