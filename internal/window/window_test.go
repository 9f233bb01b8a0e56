package window

import (
	"math"
	"testing"

	"soifft/internal/cvec"
	"soifft/internal/ref"
)

// paperParams returns a small-N configuration with the paper's mu=8/7,
// B=72 filter shape. Accuracy depends only on (mu-1)*B, not on N, so small
// problems exercise the same design regime as the tera-scale runs.
func paperParams() Params {
	// N = Segments * M with M = DMu*Segments*chunks = 7*4*16 = 448.
	return Params{N: 4 * 448, Segments: 4, NMu: 8, DMu: 7, B: 72}
}

func TestValidate(t *testing.T) {
	good := paperParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := []Params{
		{N: 0, Segments: 4, NMu: 8, DMu: 7, B: 72},
		{N: 1792, Segments: 0, NMu: 8, DMu: 7, B: 72},
		{N: 1792, Segments: 4, NMu: 7, DMu: 8, B: 72},    // mu < 1
		{N: 1792, Segments: 4, NMu: 8, DMu: 7, B: 0},     // B = 0
		{N: 1792, Segments: 4, NMu: 10, DMu: 4, B: 72},   // not lowest terms
		{N: 1793, Segments: 4, NMu: 8, DMu: 7, B: 72},    // Segments !| N
		{N: 4 * 450, Segments: 4, NMu: 8, DMu: 7, B: 72}, // M not mult of DMu*S
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params %+v accepted", i, p)
		}
	}
}

func TestDerivedQuantities(t *testing.T) {
	p := paperParams()
	if p.M() != 448 {
		t.Errorf("M = %d", p.M())
	}
	if p.MPrime() != 512 {
		t.Errorf("M' = %d, want 512 (448*8/7)", p.MPrime())
	}
	if math.Abs(p.Mu()-8.0/7.0) > 1e-15 {
		t.Errorf("Mu = %v", p.Mu())
	}
	if p.Chunks() != 64 {
		t.Errorf("Chunks = %d", p.Chunks())
	}
	if p.TapsLen() != 288 {
		t.Errorf("TapsLen = %d", p.TapsLen())
	}
	if p.GhostElems() != (72-7)*4 {
		t.Errorf("GhostElems = %d", p.GhostElems())
	}
	// Flops formula from Section 4: 8*B*mu*N.
	want := 8 * 72 * (8.0 / 7.0) * float64(p.N)
	if math.Abs(p.ConvFlops()-want) > 1 {
		t.Errorf("ConvFlops = %v want %v", p.ConvFlops(), want)
	}
}

func TestDesignPaperParameters(t *testing.T) {
	f, err := Design(paperParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Taps) != 8 {
		t.Fatalf("want NMu=8 shifted filters, got %d", len(f.Taps))
	}
	for a, taps := range f.Taps {
		if len(taps) != 288 {
			t.Fatalf("filter %d has %d taps", a, len(taps))
		}
	}
	if len(f.Demod) != 448 {
		t.Fatalf("Demod length %d", len(f.Demod))
	}
	// The paper's (mu=8/7, B=72) regime sits at the Kaiser length/transition
	// limit of ~155 dB; the designed filter must achieve it (~2e-8).
	if ab := f.AliasBound(); ab > 5e-8 {
		t.Errorf("alias bound %g too large for paper parameters", ab)
	}
	// Conditioning: the band-edge sag must stay moderate so demodulation
	// does not amplify round-off.
	if cond := f.PassbandMax / f.PassbandMin; cond > 1e4 {
		t.Errorf("passband conditioning %g too large", cond)
	}
}

func TestAccuracyImprovesWithB(t *testing.T) {
	// Larger convolution width B => deeper stopband => smaller alias bound.
	prev := math.Inf(1)
	for _, b := range []int{8, 16, 32, 64} {
		p := paperParams()
		p.B = b
		f, err := Design(p)
		if err != nil {
			t.Fatal(err)
		}
		ab := f.AliasBound()
		if !(ab < prev) {
			t.Errorf("B=%d: alias bound %g did not improve on %g", b, ab, prev)
		}
		prev = ab
	}
	if prev > 5e-7 {
		t.Errorf("B=64 alias bound %g unexpectedly poor", prev)
	}
}

func TestMu54Design(t *testing.T) {
	// mu = 5/4, the other factor the paper quotes; wider transition =>
	// even deeper stopband at the same B.
	p := Params{N: 4 * 512, Segments: 4, NMu: 5, DMu: 4, B: 48}
	f, err := Design(p)
	if err != nil {
		t.Fatal(err)
	}
	if p.MPrime() != 640 {
		t.Fatalf("M' = %d", p.MPrime())
	}
	if ab := f.AliasBound(); ab > 5e-9 {
		t.Errorf("mu=5/4 B=48 alias bound %g", ab)
	}
}

func TestPartialDFTMatchesDirect(t *testing.T) {
	h := ref.RandomVector(37, 3)
	const bigN, K = 1024, 100
	got := partialDFT(h, bigN, K)
	want := make([]complex128, K)
	for k := 0; k < K; k++ {
		var re, im float64
		for nu, v := range h {
			ang := 2 * math.Pi * float64(nu*k%bigN) / float64(bigN)
			s, c := math.Sincos(ang)
			re += real(v)*c - imag(v)*s
			im += real(v)*s + imag(v)*c
		}
		want[k] = complex(re, im)
	}
	if e := cvec.RelErrL2(got, want); e > 1e-11 {
		t.Errorf("partialDFT error %g", e)
	}
}

func TestFractionalShiftProperty(t *testing.T) {
	// H_a(kappa)/H_0(kappa) must equal exp(2*pi*i*a*shift*kappa/N) within
	// the passband, where shift = Segments/mu — the property the whole
	// derivation rests on.
	p := paperParams()
	f, err := Design(p)
	if err != nil {
		t.Fatal(err)
	}
	shift := float64(p.Segments) / p.Mu()
	for _, a := range []int{1, 3, 7} {
		for _, kappa := range []float64{0, 100, 300, 447} {
			h0 := f.responseAt(kappa)
			// Response of h_a at kappa.
			var re, im float64
			w := 2 * math.Pi * kappa / float64(p.N)
			for nu, v := range f.Taps[a] {
				s, c := math.Sincos(w * float64(nu))
				re += real(v)*c - imag(v)*s
				im += real(v)*s + imag(v)*c
			}
			ha := complex(re, im)
			ang := 2 * math.Pi * float64(a) * shift * kappa / float64(p.N)
			s, c := math.Sincos(ang)
			want := h0 * complex(c, s)
			if d := cabs(ha - want); d > 1e-7*cabs(h0) {
				t.Errorf("a=%d kappa=%v: |H_a - H_0*phase| = %g (|H_0|=%g)", a, kappa, d, cabs(h0))
			}
		}
	}
}

func TestResponseShape(t *testing.T) {
	p := paperParams()
	f, err := Design(p)
	if err != nil {
		t.Fatal(err)
	}
	mid := cabs(f.ResponseAt(float64(p.M()) / 2))
	// Band centre is in the flat region: close to the DC gain of the
	// underlying low-pass (1.0 by construction).
	if math.Abs(mid-1) > 0.01 {
		t.Errorf("band-centre response %g, want ~1", mid)
	}
	// Deep in the first image the response must be at the stopband floor.
	img := cabs(f.ResponseAt(float64(p.MPrime()) + float64(p.M())/2))
	if img > 1e-8 {
		t.Errorf("response at first image centre %g", img)
	}
}

func TestKaiserBeatsGaussianPrototype(t *testing.T) {
	// DESIGN.md Section 2: at a fixed tap budget the Kaiser-windowed sinc's
	// near-optimal time-frequency concentration beats a Gaussian window by
	// orders of magnitude. This pins that design decision.
	p := paperParams()
	kaiser, err := Design(p)
	if err != nil {
		t.Fatal(err)
	}
	gauss := GaussianScore(p)
	if gauss <= 0 {
		t.Fatalf("gaussian score %g", gauss)
	}
	if kaiser.AliasBound() >= gauss/10 {
		t.Errorf("Kaiser bound %.2e not clearly better than Gaussian %.2e", kaiser.AliasBound(), gauss)
	}
}

func TestDemodInvertsResponse(t *testing.T) {
	// Demod[kappa] * (M'/N) * G(kappa) == 1: the demodulation is the exact
	// inverse of the modeled per-bin gain.
	p := paperParams()
	f, err := Design(p)
	if err != nil {
		t.Fatal(err)
	}
	scale := complex(float64(p.MPrime())/float64(p.N), 0)
	for _, k := range []int{0, 1, p.M() / 2, p.M() - 1} {
		g := f.ResponseAt(float64(k))
		v := f.Demod[k] * scale * g
		if cabs(v-1) > 1e-12 {
			t.Errorf("bin %d: demod*scale*G = %v", k, v)
		}
	}
}

func TestGhostElemsNeverNegative(t *testing.T) {
	p := paperParams()
	p.B = p.DMu // minimum legal width
	if p.GhostElems() < 0 {
		t.Error("negative ghost")
	}
	if err := p.Validate(); err != nil {
		t.Errorf("B == DMu should validate: %v", err)
	}
}
