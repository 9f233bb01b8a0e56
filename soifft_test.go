package soifft

import (
	"math"
	"math/cmplx"
	"testing"

	"soifft/internal/cvec"
	"soifft/internal/ref"
	"soifft/internal/trace"
)

// validN returns a valid SOI length near the requested magnitude for the
// default config (segments=8, dmu=7): multiples of 8*8*7 = 448.
func validN(k int) int { return 448 * k }

func TestPlanForwardMatchesFFT(t *testing.T) {
	n := validN(8) // 3584
	plan, err := NewPlan(n, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	x := ref.RandomVector(n, 1)
	got := make([]complex128, n)
	if err := plan.Forward(got, x); err != nil {
		t.Fatal(err)
	}
	want, err := FFT(x)
	if err != nil {
		t.Fatal(err)
	}
	e := cvec.RelErrL2(got, want)
	if e > 1e-7 {
		t.Errorf("SOI error %g (designed bound %g)", e, plan.EstimatedError())
	}
	if plan.N() != n || plan.Segments() != 8 {
		t.Errorf("metadata: N=%d Segments=%d", plan.N(), plan.Segments())
	}
}

func TestPlanInverseRoundTrip(t *testing.T) {
	n := validN(4)
	plan, err := NewPlan(n, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	x := ref.RandomVector(n, 2)
	y := make([]complex128, n)
	z := make([]complex128, n)
	if err := plan.Forward(y, x); err != nil {
		t.Fatal(err)
	}
	if err := plan.Inverse(z, y); err != nil {
		t.Fatal(err)
	}
	if e := cvec.RelErrL2(z, x); e > 1e-6 {
		t.Errorf("round trip error %g", e)
	}
}

func TestConfigVariants(t *testing.T) {
	n := validN(4)
	x := ref.RandomVector(n, 3)
	want, _ := FFT(x)
	cfgs := []Config{
		DefaultConfig(),
		{Segments: 4, OversampleNum: 8, OversampleDen: 7, ConvWidth: 48},
		{Workers: 2}, // all defaults otherwise
	}
	for i, cfg := range cfgs {
		plan, err := NewPlan(n, cfg)
		if err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
		got := make([]complex128, n)
		if err := plan.Forward(got, x); err != nil {
			t.Fatal(err)
		}
		if e := cvec.RelErrL2(got, want); e > 1e-5 {
			t.Errorf("cfg %d: error %g", i, e)
		}
	}
}

func TestMu54MoreAccurateThan87(t *testing.T) {
	// mu = 5/4 must beat mu = 8/7 at the same B — the accuracy/flops
	// trade-off the paper describes.
	n := 4 * 4 * 4 * 80 // multiple of S^2*dmu for both 4/7 and 4/4 configs... use segments 4
	c87 := Config{Segments: 4, OversampleNum: 8, OversampleDen: 7, ConvWidth: 72}
	c54 := Config{Segments: 4, OversampleNum: 5, OversampleDen: 4, ConvWidth: 72}
	n = 4 * 4 * 28 * 5 // 2240: M=560, div by 7*4=28 and 4*4=16? 560/28=20, 560/16=35 ok
	p87, err := NewPlan(n, c87)
	if err != nil {
		t.Fatal(err)
	}
	p54, err := NewPlan(n, c54)
	if err != nil {
		t.Fatal(err)
	}
	if !(p54.EstimatedError() < p87.EstimatedError()) {
		t.Errorf("mu=5/4 bound %g not better than mu=8/7 bound %g",
			p54.EstimatedError(), p87.EstimatedError())
	}
}

func TestInvalidLengths(t *testing.T) {
	if _, err := NewPlan(1000, DefaultConfig()); err == nil {
		t.Error("1000 is not a valid default-config length")
	}
	ok, next := ValidLength(1000, DefaultConfig())
	if ok {
		t.Error("1000 reported valid")
	}
	if next%448 != 0 || next < 1000 {
		t.Errorf("suggested %d", next)
	}
	if ok, n := ValidLength(next, DefaultConfig()); !ok || n != next {
		t.Errorf("suggested length %d not accepted", next)
	}
	if _, err := NewPlan(next, DefaultConfig()); err != nil {
		t.Errorf("suggested length rejected: %v", err)
	}
}

// TestValidLengthAgreesWithNewPlan: ValidLength(n, cfg) says ok exactly
// when NewPlan(n, cfg) succeeds, over configs that canonicalize away a
// lone field (OversampleDen or OversampleNum without its partner) and
// configs that window.Params.Validate rejects (one segment, B < DMu, mu not
// in lowest terms or not above 1, too few segments for mu), and every next
// length it quotes is itself valid.
func TestValidLengthAgreesWithNewPlan(t *testing.T) {
	configs := []Config{
		{},
		DefaultConfig(),
		{Segments: 4},
		{Segments: 2, OversampleNum: 5, OversampleDen: 4},
		{OversampleNum: 5, OversampleDen: 4},
		{OversampleDen: 4},
		{OversampleNum: 5},
		{Segments: 1},
		{Segments: -8},
		{ConvWidth: 5},
		{ConvWidth: -1},
		{OversampleNum: 10, OversampleDen: 8},
		{OversampleNum: 7, OversampleDen: 7},
		{Segments: 2, OversampleNum: 3, OversampleDen: 1},
	}
	lengths := []int{-896, -448, -1, 0, 1, 16, 28, 32, 100, 112, 224, 256, 448, 512, 896, 1000, 1344}
	for _, cfg := range configs {
		for _, n := range lengths {
			ok, next := ValidLength(n, cfg)
			_, err := NewPlan(n, cfg)
			if ok != (err == nil) {
				t.Errorf("%+v n=%d: ValidLength ok=%v but NewPlan error %v", cfg, n, ok, err)
			}
			if ok && next != n {
				t.Errorf("%+v n=%d: valid, but next = %d", cfg, n, next)
			}
			if ok || next == 0 {
				continue
			}
			if next < n {
				t.Errorf("%+v n=%d: next %d below n", cfg, n, next)
			}
			if _, err := NewPlan(next, cfg); err != nil {
				t.Errorf("%+v n=%d: quoted next %d fails NewPlan: %v", cfg, n, next, err)
			}
		}
	}
}

func TestFFTAndIFFT(t *testing.T) {
	for _, n := range []int{16, 100, 101} {
		x := ref.RandomVector(n, int64(n))
		y, err := FFT(x)
		if err != nil {
			t.Fatal(err)
		}
		if e := cvec.RelErrL2(y, ref.DFT(x)); e > 1e-11 {
			t.Errorf("n=%d FFT error %g", n, e)
		}
		z, err := IFFT(y)
		if err != nil {
			t.Fatal(err)
		}
		if e := cvec.RelErrL2(z, x); e > 1e-12 {
			t.Errorf("n=%d IFFT round trip %g", n, e)
		}
	}
}

func TestClusterForward(t *testing.T) {
	n := validN(8)
	x := ref.RandomVector(n, 4)
	want, _ := FFT(x)
	for _, ranks := range []int{1, 2, 4, 8} {
		cl, err := NewCluster(ranks, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		got := make([]complex128, n)
		stats, err := cl.Forward(got, x)
		if err != nil {
			t.Fatal(err)
		}
		if e := cvec.RelErrL2(got, want); e > 1e-7 {
			t.Errorf("ranks=%d: error %g", ranks, e)
		}
		if len(stats.PhaseSeconds) == 0 {
			t.Errorf("ranks=%d: no phase stats", ranks)
		}
		// Every Fig. 9 phase the model prices runs for real.
		for _, phase := range []string{trace.PhaseConv, trace.PhaseLocalFFT, trace.PhaseExposedMPI} {
			if stats.PhaseSeconds[phase] <= 0 {
				t.Errorf("ranks=%d: phase %q not exercised", ranks, phase)
			}
		}
		if cl.Ranks() != ranks {
			t.Errorf("Ranks() = %d", cl.Ranks())
		}
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(0, DefaultConfig()); err == nil {
		t.Error("0 ranks accepted")
	}
	if _, err := NewCluster(3, DefaultConfig()); err == nil {
		t.Error("8 segments over 3 ranks accepted")
	}
	cl, _ := NewCluster(2, DefaultConfig())
	if _, err := cl.Forward(make([]complex128, 10), make([]complex128, 100)); err == nil {
		t.Error("short dst accepted")
	}
}

func TestSpectralContract(t *testing.T) {
	// A tone at bin f produces amplitude n at exactly that output index —
	// the in-order property, end to end through the public API.
	n := validN(4)
	plan, err := NewPlan(n, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bin := n/3 + 7
	x := ref.Tones(n, []int{bin}, []complex128{2i})
	got := make([]complex128, n)
	if err := plan.Forward(got, x); err != nil {
		t.Fatal(err)
	}
	if d := cmplx.Abs(got[bin] - complex(0, 2*float64(n))); d > 1e-5*float64(n) {
		t.Errorf("tone bin value %v", got[bin])
	}
	// Energy elsewhere is at the noise floor.
	got[bin] = 0
	if r := cvec.L2Norm(got) / (2 * float64(n)); r > 1e-5 {
		t.Errorf("off-bin energy ratio %g", r)
	}
	_ = math.Pi
}

func TestClusterInverseRoundTrip(t *testing.T) {
	n := validN(8)
	x := ref.RandomVector(n, 8)
	cl, err := NewCluster(4, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	y := make([]complex128, n)
	z := make([]complex128, n)
	if _, err := cl.Forward(y, x); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Inverse(z, y); err != nil {
		t.Fatal(err)
	}
	if e := cvec.RelErrL2(z, x); e > 1e-6 {
		t.Errorf("cluster round trip error %g", e)
	}
}

func TestConfigCanonical(t *testing.T) {
	def := DefaultConfig()
	if got := (Config{}).Canonical(); got != def {
		t.Errorf("zero config canonicalizes to %+v, want %+v", got, def)
	}
	full := Config{Segments: 16, OversampleNum: 5, OversampleDen: 4, ConvWidth: 48, Workers: 2}
	if got := full.Canonical(); got != full {
		t.Errorf("explicit config changed by Canonical: %+v", got)
	}
	if got := def.Canonical(); got != def {
		t.Errorf("default config not a fixed point: %+v", got)
	}
}
