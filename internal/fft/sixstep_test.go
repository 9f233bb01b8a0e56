package fft

import (
	"testing"

	"soifft/internal/cvec"
	"soifft/internal/ref"
)

// SixStep correctness against the reference DFT and the plain Plan lives in
// the kernel-oracle suite (oracle_test.go), which covers every variant on
// both kernel layouts at smooth, rough and Fig. 11 sizes. The tests below
// cover the features the oracle table doesn't parameterize: demod fusion,
// argument validation and variant metadata.

func TestSixStepDemodFusion(t *testing.T) {
	forEachKernel(t, sixStepDemodFusion)
}

func sixStepDemodFusion(t *testing.T) {
	n := 2048
	x := ref.RandomVector(n, 5)
	d := ref.RandomVector(n, 6)
	want := make([]complex128, n)
	MustPlan(n).Forward(want, x)
	for i := range want {
		want[i] *= d[i]
	}
	for _, variant := range AllVariants {
		s, err := NewSixStep(n, variant, 3)
		if err != nil {
			t.Fatal(err)
		}
		s.SetDemod(d)
		got := make([]complex128, n)
		s.Forward(got, x)
		if e := cvec.RelErrL2(got, want); e > 1e-11 {
			t.Errorf("%v: fused demod error %g", variant, e)
		}
	}
}

func TestSixStepRejectsPrime(t *testing.T) {
	if _, err := NewSixStep(31, SixStepOpt, 1); err == nil {
		t.Fatal("expected error for prime length")
	}
	if _, err := NewSixStep(2, SixStepOpt, 1); err == nil {
		t.Fatal("expected error for tiny length")
	}
}

func TestSixStepSplit(t *testing.T) {
	s, err := NewSixStep(1<<12, SixStepOpt, 1)
	if err != nil {
		t.Fatal(err)
	}
	n1, n2 := s.Split()
	if n1*n2 != 1<<12 || n1 != 64 || n2 != 64 {
		t.Fatalf("split = %d x %d", n1, n2)
	}
	if s.N() != 1<<12 {
		t.Fatalf("N = %d", s.N())
	}
}

func TestVariantMetadata(t *testing.T) {
	if SixStepNaive.MemorySweeps() != 13 {
		t.Errorf("naive sweeps = %d, want 13 (Fig 4a)", SixStepNaive.MemorySweeps())
	}
	if SixStepOpt.MemorySweeps() != 4 {
		t.Errorf("opt sweeps = %d, want 4 (Fig 4b)", SixStepOpt.MemorySweeps())
	}
	names := map[Variant]string{
		SixStepNaive: "6-step-naive",
		SixStepOpt:   "6-step-opt",
	}
	for v, want := range names {
		if v.String() != want {
			t.Errorf("%d.String() = %q want %q", int(v), v.String(), want)
		}
	}
}

func TestBatchTransform(t *testing.T) {
	const n, count = 64, 10
	b, err := NewBatch(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	src := ref.RandomVector(n*count, 11)
	dst := make([]complex128, n*count)
	b.Transform(dst, src, count, n, Forward)
	for i := 0; i < count; i++ {
		want := ref.DFT(src[i*n : (i+1)*n])
		if e := cvec.RelErrL2(dst[i*n:(i+1)*n], want); e > 1e-12 {
			t.Errorf("batch %d: error %g", i, e)
		}
	}
	// Round trip through Inverse restores the input.
	back := make([]complex128, n*count)
	b.Transform(back, dst, count, n, Inverse)
	if e := cvec.RelErrL2(back, src); e > 1e-12 {
		t.Errorf("batch round-trip error %g", e)
	}
}

func TestBatchPanicsOnBadArgs(t *testing.T) {
	b, _ := NewBatch(8, 1)
	for _, fn := range []func(){
		func() { b.Transform(make([]complex128, 16), make([]complex128, 16), 2, 4, Forward) }, // dist < n
		func() { b.Transform(make([]complex128, 8), make([]complex128, 16), 2, 8, Forward) },  // dst short
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
