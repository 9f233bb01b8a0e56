package fft

import (
	"slices"
	"testing"

	"soifft/internal/cvec"
	"soifft/internal/ref"
)

func TestCodeletsMatchReference(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		x := ref.RandomVector(n, int64(n))
		dst := make([]complex128, n)
		if !codeletForward(dst, x, n) {
			t.Fatalf("no codelet for n=%d", n)
		}
		if e := cvec.RelErrL2(dst, ref.DFT(x)); e > 1e-14 {
			t.Errorf("codelet n=%d: error %g", n, e)
		}
	}
	if codeletForward(nil, nil, 6) {
		t.Error("codelet claimed to handle n=6")
	}
}

func TestCodeletsInPlace(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		x := ref.RandomVector(n, 3)
		want := ref.DFT(x)
		codeletForward(x, x, n)
		if e := cvec.RelErrL2(x, want); e > 1e-14 {
			t.Errorf("in-place codelet n=%d: error %g", n, e)
		}
	}
}

func TestCodeletInverseThroughPlan(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		p := MustPlan(n)
		x := ref.RandomVector(n, 5)
		y := make([]complex128, n)
		z := make([]complex128, n)
		p.Forward(y, x)
		p.Inverse(z, y)
		if e := cvec.RelErrL2(z, x); e > 1e-14 {
			t.Errorf("n=%d codelet round trip: %g", n, e)
		}
		if e := cvec.RelErrL2(z, ref.IDFT(y)); e > 1e-13 {
			t.Errorf("n=%d codelet inverse vs reference: %g", n, e)
		}
	}
}

// TestRadix8Schedule pins factorize's rule: radix-8 passes while at least
// three factors of two remain, then one radix-4 or one radix-2 pass, then the
// odd radices; a LaneBatch runs the schedule of the Plan of its length,
// whatever its lane count (DESIGN.md, "The radix schedule").
func TestRadix8Schedule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want []int
	}{
		{1 << 9, []int{8, 8, 8}},
		{1 << 10, []int{8, 8, 8, 2}},
		{1 << 12, []int{8, 8, 8, 8}},
		{1 << 13, []int{8, 8, 8, 8, 2}},
		{1 << 14, []int{8, 8, 8, 8, 4}},
		{1 << 16, []int{8, 8, 8, 8, 8, 2}},
		{7 << 12, []int{8, 8, 8, 8, 7}},
		{7 << 16, []int{8, 8, 8, 8, 8, 2, 7}},
		{12, []int{4, 3}},
	} {
		got, smooth := factorize(c.n)
		if !smooth || !slices.Equal(got, c.want) {
			t.Errorf("factorize(%d) = %v, %v; want %v", c.n, got, smooth, c.want)
		}
		plan := radicesOf(MustPlan(c.n).stages)
		for _, lanes := range []int{1, 3, 8} {
			lb, err := NewLaneBatch(c.n, lanes)
			if err != nil {
				t.Fatal(err)
			}
			if lane := radicesOf(lb.stages); !slices.Equal(lane, plan) {
				t.Errorf("n=%d: LaneBatch of %d lanes runs %v, Plan %v", c.n, lanes, lane, plan)
			}
		}
	}
}

// TestScheduleModes holds a schedule change to the kernel oracle's
// tolerance, on every kernel the host has. At n = 4096 factorize emitted
// 8,8,8,4,2 while it had its aliasing rule and 8,8,8,8 since: the two plans
// differ in their last bits (the bit mode, which nothing pins at this size,
// would fail) and both lie within ref.FFTBound of ref.DFT (the tolerance
// mode passes). The plan of today with one twiddle off by 1e-9 fails it.
func TestScheduleModes(t *testing.T) {
	const n = 1 << 12
	x := ref.RandomVector(n, 12)
	want := ref.DFT(x)
	today := MustPlan(n)
	aliasing := &Plan{n: n, stages: buildStages(n, 1, []int{8, 8, 8, 4, 2})}
	aliasing.work.New = today.work.New
	seeded := &Plan{n: n, stages: slices.Clone(today.stages)}
	seeded.work.New = today.work.New
	seeded.stages[1].tw = slices.Clone(seeded.stages[1].tw)
	seeded.stages[1].tw[5] *= 1 + 1e-9
	forEachKernel(t, func(t *testing.T) {
		outs := map[string][]complex128{}
		for _, c := range []struct {
			name   string
			p      *Plan
			within bool
		}{{"today", today, true}, {"aliasing", aliasing, true}, {"seeded", seeded, false}} {
			y := make([]complex128, n)
			c.p.Forward(y, x)
			outs[c.name] = y
			e := cvec.RelErrL2(y, want)
			t.Logf("%s schedule %v: %.3g from ref.DFT (bound %.3g)", c.name, radicesOf(c.p.stages), e, ref.FFTBound(n))
			if (e <= ref.FFTBound(n)) != c.within {
				t.Errorf("%s: %.3g from ref.DFT, bound %.3g: within %v, want %v", c.name, e, ref.FFTBound(n), !c.within, c.within)
			}
		}
		if firstBitDiff(outs["today"], outs["aliasing"]) < 0 {
			t.Error("the two schedules agree bit for bit: the bit mode cannot tell them apart")
		}
	})
}

func radicesOf(stages []stage) []int {
	var r []int
	for _, st := range stages {
		r = append(r, st.r)
	}
	return r
}

func BenchmarkCodelets(b *testing.B) {
	for _, n := range []int{8, 16} {
		p := MustPlan(n)
		x := ref.RandomVector(n, 1)
		dst := make([]complex128, n)
		b.Run(planName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.Forward(dst, x)
			}
		})
	}
}

func planName(n int) string {
	return map[int]string{8: "n=8", 16: "n=16"}[n]
}
