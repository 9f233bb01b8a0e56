// Package window designs the convolution-and-oversampling operator W of the
// SOI factorization (Equation 1 of the paper) and its demodulation inverse
// W^-1.
//
// # Construction
//
// The SOI decomposition is a P-channel oversampled polyphase DFT filter
// bank: because every P-by-P block of W is diagonal (Fig. 6a of the paper),
// the convolution applies, to each polyphase lane of the input, one of nmu
// fractionally-shifted copies h_a of a single prototype filter with B*P
// taps. Writing G(kappa) for the prototype's discrete-time spectrum sampled
// at output bin kappa, segment f of the final output satisfies
//
//	T_f[kappa] = (M'/N) * [ G(kappa)*Y[f*M+kappa]
//	                        + sum_{r!=0} G(kappa+r*M')*Y[f*M+kappa+r*M'] ]
//
// so demodulation is division by (M'/N)*G(kappa), and the only error is the
// aliasing sum, bounded by the prototype's stopband leakage relative to its
// passband level. (The full derivation is in DESIGN.md Section 2.)
//
// The prototype is a Kaiser-windowed sinc low-pass, modulated to centre its
// passband on bins [0, M] and sampled from its continuous-time form, which
// realizes the fractional shifts h_a(t - a*P/mu) exactly (up to the same
// stopband-level aliasing). Because demodulation divides by the exact,
// numerically evaluated G(kappa), passband ripple costs nothing; only
// stopband rejection and passband conditioning matter, and the designer
// reports both. With the paper's parameters (B = 72, mu = 8/7) the achieved
// leakage is below 1e-9 relative — the regime that lets the paper use SOI
// for HPCC G-FFT.
package window

import (
	"fmt"
	"math"
)

// Params selects a SOI operator. The field names follow Table 1 of the
// paper, with Segments playing the role of the algebraic P (the number of
// spectrum segments; a process may own several segments).
type Params struct {
	N        int // total transform length
	Segments int // number of segments (the algebraic P of Equation 1)
	NMu, DMu int // oversampling factor mu = NMu/DMu > 1 (typ. 8/7 or 5/4)
	B        int // convolution width in blocks of Segments taps (typ. 72)
}

// Validate checks the divisibility constraints the factorization needs.
func (p Params) Validate() error {
	if p.N <= 0 || p.Segments <= 0 || p.B <= 0 {
		return fmt.Errorf("window: non-positive parameter in %+v", p)
	}
	if p.DMu <= 0 || p.NMu <= p.DMu {
		return fmt.Errorf("window: oversampling factor %d/%d must exceed 1", p.NMu, p.DMu)
	}
	if p.B < p.DMu {
		// The chunk advance (DMu blocks) would outrun the window (B
		// blocks): input samples would be skipped entirely.
		return fmt.Errorf("window: convolution width B=%d smaller than DMu=%d", p.B, p.DMu)
	}
	if gcd(p.NMu, p.DMu) != 1 {
		return fmt.Errorf("window: mu = %d/%d not in lowest terms", p.NMu, p.DMu)
	}
	if p.N%p.Segments != 0 {
		return fmt.Errorf("window: segments %d must divide N %d", p.Segments, p.N)
	}
	m := p.N / p.Segments
	if m%(p.DMu*p.Segments) != 0 {
		return fmt.Errorf("window: M = N/Segments = %d must be a multiple of DMu*Segments = %d (integral chunk count)", m, p.DMu*p.Segments)
	}
	// The prototype's spectral support (passband M plus two transitions of
	// (mu-1)*M) must fit strictly inside one period N = Segments*M, or the
	// aliasing images overlap the band and no filter can separate them:
	// Segments > 2*mu - 1.
	if p.Segments*p.DMu <= 2*p.NMu-p.DMu {
		return fmt.Errorf("window: %d segments too few for mu=%d/%d (need Segments > 2*mu-1 = %g)",
			p.Segments, p.NMu, p.DMu, 2*float64(p.NMu)/float64(p.DMu)-1)
	}
	return nil
}

// M returns the per-segment output length N/Segments.
func (p Params) M() int { return p.N / p.Segments }

// MPrime returns the oversampled per-segment length mu*M. (Validate
// guarantees the divisions below are exact, so the symbolic form holds.)
func (p Params) MPrime() int { return p.M() / p.DMu * p.NMu }

// Mu returns the oversampling factor as a float.
func (p Params) Mu() float64 { return float64(p.NMu) / float64(p.DMu) }

// Chunks returns the total number of convolution chunks M/DMu; each chunk
// emits NMu*Segments outputs and advances the input by DMu*Segments.
func (p Params) Chunks() int { return p.M() / p.DMu }

// TapsLen returns the prototype filter length B*Segments.
func (p Params) TapsLen() int { return p.B * p.Segments }

// GhostElems returns the number of input elements the owner of a chunk
// range must read beyond its own data: (B-DMu)*Segments (the
// nearest-neighbour "ghost values" of Fig. 2; tens of KB in the paper's
// configurations). The symbolic form assumes B >= DMu, which Validate
// enforces (the runtime clamp to zero is unreachable for valid parameters).
func (p Params) GhostElems() int {
	g := (p.B - p.DMu) * p.Segments
	if g < 0 {
		g = 0
	}
	return g
}

// InteriorChunks returns how many leading chunks of a run of n read only the
// run's own n*DMu*Segments inputs: chunk c reads B blocks of Segments inputs
// starting at block c*DMu. The rest also read the elements that follow the
// run (the ghost values of a distributed rank, the circular wrap of a plan).
func (p Params) InteriorChunks(n int) int {
	if blocks := n * p.DMu; blocks >= p.B {
		return (blocks-p.B)/p.DMu + 1
	}
	return 0
}

// ConvFlops returns the paper's nominal floating-point operation count of
// the convolution, 8*B*mu*N (Section 4: B complex multiplies and B-1 complex
// adds per length-B inner product). It is the model's and the benchmark's
// common denominator, not the executed count: the production kernel
// multiplies by the real LaneTaps and rotates once per output, executing
// (4*B+6)*mu*N flops (DESIGN.md Section 2); the Baseline and Interchange
// ablations execute the nominal count.
func (p Params) ConvFlops() float64 {
	return 8 * float64(p.B) * p.Mu() * float64(p.N)
}

// tapShift returns d_a, the fractional shift (in samples) of filter a: steps
// of Segments/mu centred around zero, so the largest shift truncates only
// window-edge taps (which are at the stopband floor already). Any common
// offset cancels between H_a and the measured G = H_0, so correctness is
// unaffected.
func (p Params) tapShift(a int) float64 {
	shift := float64(p.Segments) / p.Mu()
	delta0 := -float64(p.NMu-1) / 2 * shift
	return delta0 + float64(a)*shift
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Filter is a designed SOI convolution operator.
type Filter struct {
	Params
	// Taps[a][nu] = h_a[nu] for a in [0,NMu), nu in [0, B*Segments): the
	// NMu fractionally shifted filters. These are the nmu*P*B distinct
	// elements of W that the paper stores compactly (Fig. 6a).
	Taps [][]complex128
	// LaneTaps and LanePhase are Taps factored per polyphase lane j (see
	// factorLanes): Taps[a][b*S+j] = LaneTaps[(j*NMu+a)*B+b] * LanePhase[j*NMu+a]
	// with LaneTaps real and |LanePhase| = 1. The production convolution
	// kernel reads these; they are derived from Taps, never stored.
	LaneTaps  []float64
	LanePhase []complex128
	// LaneTapsDup is LaneTaps with every entry stored twice,
	// LaneTapsDup[2*i] = LaneTapsDup[2*i+1] = LaneTaps[i]: one tap lines up
	// with the (re, im) pair of a complex128, so a vector kernel multiplies a
	// run of window elements by a plain load, no shuffle. Twice LaneTaps'
	// size (S*NMu*B*16 bytes), built with it.
	LaneTapsDup []float64
	// Demod[kappa] = N/(M'*G(kappa)) for kappa in [0,M): the diagonal of
	// W^-1 in Equation 1.
	Demod []complex128
	// Diagnostics from the design pass.
	PassbandMin float64 // min |G| over output bins [0,M)
	PassbandMax float64 // max |G| over output bins
	StopbandMax float64 // max sampled |G| over the aliasing frequencies
	// ShiftErrMax is the largest sampled violation of the fractional-shift
	// property |H_a - G*e^{i a phi}| — the tap-truncation error of the
	// shifted prototypes, which floors the achievable accuracy when the
	// stopband is deeper than the truncation.
	ShiftErrMax float64
}

// AliasBound returns an a-priori estimate of the relative error of the SOI
// transform: the worst of the aliasing leakage and the fractional-shift
// truncation error, relative to the passband response. The measured
// end-to-end error is typically within a small factor of this.
func (f *Filter) AliasBound() float64 {
	if f.PassbandMin == 0 {
		return math.Inf(1)
	}
	worst := f.StopbandMax
	if f.ShiftErrMax > worst {
		worst = f.ShiftErrMax
	}
	return worst / f.PassbandMin
}

// Design builds the SOI filter for p. The design is deterministic. With
// L = B*Segments taps, C = 12 (beta, cutoff) candidates and F probe
// frequencies (17 in the passband, 18 per aliasing image plus 130 on the
// first pair: 273 at 8 segments, at most 435), the search costs C*2L
// prototype samples (one Bessel series each), F*2L Sincos for the phase
// tables the candidates share and C*F*2L multiply-adds; the NMu tap sets
// cost NMu*L samples and the demodulation table one chirp-z partial DFT,
// O((L + M) log (L + M)). Nothing but that last term grows with N.
func Design(p Params) (*Filter, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	f := &Filter{Params: p}
	M := p.M()
	mu := p.Mu()

	// All frequencies below are in units of output bins (cycles per N
	// samples). The prototype passband must cover [0, M]; aliasing images
	// fold in from offsets r*M', so the stopband must be reached by the
	// first image, i.e. the available one-sided transition is (mu-1)*M
	// bins on each side of the band.
	//
	// Kaiser sizing: a transition of (mu-1)*M bins over a length B*Segments
	// filter supports roughly A = 2.285*2*pi*(mu-1)*B + 8 dB of stopband
	// attenuation (B = 72, mu = 8/7 gives ~155 dB; mu = 5/4 more still).
	//
	// The binding error pair is the band-edge bin kappa = M-1 against its
	// image at kappa - M', which sits exactly one transition width past the
	// opposite band edge. The error there equals the response drop across
	// one transition width, so the steepest (nominal, not overdriven)
	// Kaiser transition centred between band edge and first image is the
	// right choice; slower transitions trade that drop away.
	trans := (mu - 1) * float64(M) // one-sided transition width in bins
	aBase := 2.285*2*math.Pi*(mu-1)*float64(p.B) + 8
	betaBase := kaiserBeta(aBase)

	// The Kaiser formula is only a starting point: the true objective is
	// the worst ratio of an aliasing response to a passband response, so
	// run a small grid search over (beta, cutoff) scoring that objective on
	// sampled prototype taps, then build the full filter from the winner.
	// The search also reports the winner's largest sampled response at the
	// aliasing frequencies kappa + r*M' (unwrapped — see continuousResponse;
	// the nearest images dominate, and the bounded sample keeps design time
	// independent of problem size): the stopband diagnostic.
	beta, cutoff, stopband := searchDesign(p, betaBase, trans)
	f.StopbandMax = stopband

	shift := float64(p.Segments) / mu // per-step fractional shift P/mu samples
	f.Taps = make([][]complex128, p.NMu)
	for a := 0; a < p.NMu; a++ {
		f.Taps[a] = prototypeTaps(p, beta, cutoff, p.tapShift(a))
	}
	if err := f.factorLanes(); err != nil {
		return nil, fmt.Errorf("window: designed taps do not factor: %w", err)
	}

	var err error
	f.Demod, f.PassbandMin, f.PassbandMax, err = demodulation(p, f.Taps[0], chirpLen(len(f.Taps[0]), M))
	if err != nil {
		return nil, err
	}
	// Fractional-shift fidelity: the extreme shifts (a = 0 and a = NMu-1,
	// the farthest from the centred grid) lose the most window tail to
	// truncation. Probe |H_a(kappa) - G(kappa) e^{2 pi i a shift kappa/N}|
	// across the band; this floors the transform's accuracy.
	for _, a := range []int{0, p.NMu - 1} {
		for i := 0; i <= 8; i++ {
			kappa := float64(i) * float64(M-1) / 8
			g0 := f.responseAt(kappa)
			ha := responseOf(f.Taps[a], p.N, kappa)
			ang := 2 * math.Pi * float64(a) * shift * kappa / float64(p.N)
			sn, cs := math.Sincos(ang)
			want := g0 * complex(cs, sn)
			if d := cabs(ha - want); d > f.ShiftErrMax {
				f.ShiftErrMax = d
			}
		}
	}
	return f, nil
}

// demodulation returns the diagonal of W^-1 for the prototype taps h0,
// Demod[k] = N/(M'*G(k)) for k in [0, M), with the smallest and largest |G|
// over those bins. G is the exact response at every output bin, G[k] =
// sum_nu h0[nu] e^{+2*pi*i*nu*k/N}, from one chirp-z partial DFT of length m
// (chirpLen; a longer one evaluates the same sums in another order).
func demodulation(p Params, h0 []complex128, m int) (demod []complex128, pmin, pmax float64, err error) {
	M := p.M()
	g := partialDFT(h0, p.N, M, m)
	demod = make([]complex128, M)
	pmin = math.Inf(1)
	scale := float64(p.N) / float64(p.MPrime())
	for k := 0; k < M; k++ {
		mag := cabs(g[k])
		pmin = min(pmin, mag)
		pmax = max(pmax, mag)
		if mag == 0 {
			return nil, 0, 0, fmt.Errorf("window: zero response at bin %d; parameters %+v are unusable", k, p)
		}
		demod[k] = complex(scale, 0) / g[k]
	}
	return demod, pmin, pmax, nil
}

// phaseError reports a tap that is not a real multiple of its lane's
// analytic phase: the taps were not sampled from this package's prototype.
// Design's self-check; a designed filter never produces one.
type phaseError struct {
	A, Nu    int     // the offending tap is Taps[A][Nu]
	Residual float64 // its rotated imaginary part over max|Taps|
}

func (e *phaseError) Error() string {
	return fmt.Sprintf("tap [%d][%d] is not real after removing its lane phase (residual %.3g of the largest tap, limit %.0e)",
		e.A, e.Nu, e.Residual, phaseResidualMax)
}

// phaseResidualMax bounds the imaginary part a tap may keep after rotation
// by its conjugate lane phase, relative to the largest tap. Designed taps
// leave ~1e-15 (the rounding of two evaluations of the same angle).
const phaseResidualMax = 1e-12

// factorLanes builds LaneTaps, LaneTapsDup and LanePhase from Taps, the
// last step of Design. The
// prototype is g(t) = lp(t)*e^{-2*pi*i*(M/2)*t/N} with lp real, and
// N = Segments*M, so at tap nu = b*S + j of filter a (t = nu - t0 - d_a,
// t0 = B*S/2 - 1/2) the modulation is
// e^{-i*pi*(b-B/2)} * e^{-i*pi*(j+1/2-d_a)/S}: a sign per block times a unit
// phase that depends on (j, a) only. The phase is evaluated at that reduced
// argument (times the exact i^B), not from Taps, so a tap that disagrees with
// it is detected rather than absorbed.
func (f *Filter) factorLanes() error {
	s, nmu, b := f.Segments, f.NMu, f.B
	var peak float64
	for _, taps := range f.Taps {
		for _, t := range taps {
			peak = math.Max(peak, cabs(t))
		}
	}
	iPowB := [4]complex128{1, 1i, -1, -1i}[b&3] // e^{+i*pi*B/2}
	f.LaneTaps = make([]float64, s*nmu*b)
	f.LanePhase = make([]complex128, s*nmu)
	for j := 0; j < s; j++ {
		for a, taps := range f.Taps {
			sn, cs := math.Sincos(-math.Pi * (float64(j) + 0.5 - f.tapShift(a)) / float64(s))
			ph := complex(cs, sn) * iPowB
			f.LanePhase[j*nmu+a] = ph
			row := f.LaneTaps[(j*nmu+a)*b:][:b]
			for bb := range row {
				t := taps[bb*s+j] * complex(real(ph), -imag(ph))
				if res := math.Abs(imag(t)); !(res <= phaseResidualMax*peak) {
					return &phaseError{A: a, Nu: bb*s + j, Residual: res / peak}
				}
				row[bb] = real(t)
			}
		}
	}
	f.LaneTapsDup = make([]float64, 0, 2*len(f.LaneTaps))
	for _, r := range f.LaneTaps {
		f.LaneTapsDup = append(f.LaneTapsDup, r, r)
	}
	return nil
}

// responseOf evaluates the DTFT of taps at bin kappa by the direct sum.
func responseOf(taps []complex128, bigN int, kappa float64) complex128 {
	var re, im float64
	w := 2 * math.Pi * kappa / float64(bigN)
	for nu, v := range taps {
		s, c := math.Sincos(w * float64(nu))
		re += real(v)*c - imag(v)*s
		im += real(v)*s + imag(v)*c
	}
	return complex(re, im)
}

// aliasSampleFreqs returns the frequencies at which one image (offset off)
// is probed. The first image dominates the bound and its peak sits within a
// transition width of the edge nearest the band, so it is sampled densely
// there; far images are probed coarsely.
func aliasSampleFreqs(p Params, off float64) []float64 {
	M := float64(p.M())
	first := float64(p.MPrime()) // |off| of the nearest image
	coarse := aliasSamplesPerImage
	var ks []float64
	for i := 0; i < coarse; i++ {
		ks = append(ks, float64(i)*(M-1)/float64(coarse-1)+off)
	}
	if off == first || off == -first {
		// Dense sweep over the edge quarter nearest the band.
		span := (M - 1) / 4
		for i := 0; i <= 64; i++ {
			k := float64(i) * span / 64
			if off > 0 {
				ks = append(ks, off+k) // low-kappa side of the +M' image
			} else {
				ks = append(ks, off+(M-1)-k) // high-kappa side of the -M' image
			}
		}
	}
	return ks
}

const (
	aliasSamplesPerImage = 9
	maxAliasImages       = 16
)

// prototype returns the continuous prototype g_c(t): a Kaiser-windowed sinc
// low-pass with the given cutoff (in bins, measured from the band centre
// M/2), modulated to centre its passband on output bins [0, M]. The
// negative modulation sign matches the response convention
// G(kappa) = sum h[nu] e^{+2*pi*i*nu*kappa/N}.
func prototype(p Params, beta, cutoff float64) func(t float64) complex128 {
	half := float64(p.TapsLen()) / 2
	center := float64(p.M()) / 2
	fc := cutoff / float64(p.N)
	n := float64(p.N)
	i0Beta := besselI0(beta)
	return func(t float64) complex128 {
		w := kaiser(t/half, beta, i0Beta)
		if w == 0 {
			return 0
		}
		lp := 2 * fc * sinc(2*fc*t) * w
		s, c := math.Sincos(-2 * math.Pi * center * t / n)
		return complex(lp*c, lp*s)
	}
}

// prototypeTaps samples g_c at integer tap positions shifted by d.
func prototypeTaps(p Params, beta, cutoff float64, d float64) []complex128 {
	L := p.TapsLen()
	t0 := float64(L)/2 - 0.5
	g := prototype(p, beta, cutoff)
	taps := make([]complex128, L)
	for nu := 0; nu < L; nu++ {
		taps[nu] = g(float64(nu) - t0 - d)
	}
	return taps
}

// oversample samples the prototype g on the half-integer tap grid, once;
// continuousResponse evaluates any number of frequencies from the samples.
func oversample(p Params, g func(t float64) complex128) []complex128 {
	t0 := float64(p.TapsLen())/2 - 0.5
	v := make([]complex128, 2*p.TapsLen())
	for nu2 := range v {
		v[nu2] = g(float64(nu2)/2 - t0)
	}
	return v
}

// continuousResponse approximates the continuous spectrum of each sampled
// prototype (see oversample) at bin kappa by the DTFT of its 2x-oversampled
// sampling. Sampling at half-integer steps pushes the sampling images out to
// +-2N bins, so the evaluation is wrap-free over the whole +-N range where
// aliasing terms live. This matters for the diagnostics only: the
// near-Nyquist images of the *actual* (integer-sampled) filter carry an
// a-dependent phase that routes them into the discarded bins [M, M') (see
// DESIGN.md), so the integer-sampled periodic response would over-count them
// as errors. The phase table ph (scratch, one entry per sample) depends on
// kappa alone, so its Sincos per sample — the expensive part — is paid once
// for all the prototypes; out[i] receives the response of protos[i].
func continuousResponse(p Params, protos [][]complex128, kappa float64, ph, out []complex128) {
	w := math.Pi * kappa / float64(p.N) // 2*pi*(nu2/2)*kappa/N per half-step
	for nu2 := range ph {
		s, c := math.Sincos(w * float64(nu2))
		ph[nu2] = complex(c, s)
	}
	for i, v := range protos {
		v = v[:len(ph)]
		var re, im float64
		for nu2, e := range ph {
			re += real(v[nu2])*real(e) - imag(v[nu2])*imag(e)
			im += real(v[nu2])*imag(e) + imag(v[nu2])*real(e)
		}
		out[i] = complex(re/2, im/2)
	}
}

// searchDesign grid-searches (beta, cutoff) around the Kaiser starting
// point, scoring each candidate by the measured worst
// alias-response/passband-response ratio on a sampled grid. It also returns
// the winner's sampled alias response, Design's StopbandMax.
func searchDesign(p Params, betaBase, trans float64) (beta, cutoff, stopband float64) {
	mid := float64(p.M()) / 2
	var cands [][2]float64
	var protos [][]complex128
	for _, bs := range []float64{0.85, 1.0, 1.15, 1.3} {
		for _, cf := range []float64{0.35, 0.5, 0.65} {
			c := [2]float64{betaBase * bs, mid + cf*trans}
			cands = append(cands, c)
			protos = append(protos, oversample(p, prototype(p, c[0], c[1])))
		}
	}
	score, sbMax := scoreCandidates(p, protos)
	best := 4 // the starting point itself (1.0, 0.5): stands if no candidate scores finite
	bestScore := math.Inf(1)
	for i, sc := range score {
		if sc < bestScore {
			bestScore, best = sc, i
		}
	}
	return cands[best][0], cands[best][1], sbMax[best]
}

// scoreCandidates returns, for each sampled prototype, (max sampled alias
// response) / (min sampled passband response) and the max itself, using the
// wrap-free continuous-spectrum evaluation. A prototype whose passband
// response vanishes scores Inf or NaN, which compare below nothing.
func scoreCandidates(p Params, protos [][]complex128) (score, sbMax []float64) {
	score = make([]float64, len(protos))
	sbMax = make([]float64, len(protos))
	ph := make([]complex128, 2*p.TapsLen())
	g := make([]complex128, len(protos))
	pbMin := make([]float64, len(protos))
	for c := range pbMin {
		pbMin[c] = math.Inf(1)
	}
	const nPass = 17
	for i := 0; i < nPass; i++ {
		continuousResponse(p, protos, float64(i)*float64(p.M()-1)/float64(nPass-1), ph, g)
		for c, v := range g {
			pbMin[c] = math.Min(pbMin[c], cabs(v))
		}
	}
	for _, off := range aliasOffsets(p) {
		for _, k := range aliasSampleFreqs(p, off) {
			continuousResponse(p, protos, k, ph, g)
			for c, v := range g {
				sbMax[c] = math.Max(sbMax[c], cabs(v))
			}
		}
	}
	for c := range score {
		score[c] = sbMax[c] / pbMin[c]
	}
	return score, sbMax
}

// aliasOffsets returns the image offsets +-r*M' (r >= 1) whose terms can
// appear in some segment's projection window (|offset| up to ~N), nearest
// first, capped for design-time bounds.
func aliasOffsets(p Params) []float64 {
	var offs []float64
	Mp := p.MPrime()
	for r := 1; r <= maxAliasImages; r++ {
		off := float64(r * Mp)
		if off > float64(p.N) {
			break
		}
		offs = append(offs, off, -off)
	}
	return offs
}

// responseAt evaluates G at a (possibly fractional) bin kappa by the direct
// O(L) sum. Used for diagnostics and tests; demodulation bins use the
// chirp-z path in Design.
func (f *Filter) responseAt(kappa float64) complex128 { return responseOf(f.Taps[0], f.N, kappa) }

// ResponseAt exposes the exact prototype response for tests and diagnostics.
func (f *Filter) ResponseAt(kappa float64) complex128 { return f.responseAt(kappa) }

func cabs(z complex128) float64 { return math.Hypot(real(z), imag(z)) }

// sinc is the normalized sinc function sin(pi x)/(pi x).
func sinc(x float64) float64 {
	if x == 0 {
		return 1
	}
	px := math.Pi * x
	return math.Sin(px) / px
}

// kaiserBeta maps a target stopband attenuation in dB to the Kaiser shape
// parameter (Kaiser's empirical formula).
func kaiserBeta(aDB float64) float64 {
	switch {
	case aDB > 50:
		return 0.1102 * (aDB - 8.7)
	case aDB >= 21:
		return 0.5842*math.Pow(aDB-21, 0.4) + 0.07886*(aDB-21)
	default:
		return 0
	}
}

// kaiser evaluates the Kaiser window I0(beta*sqrt(1-x^2))/I0(beta) for
// |x| <= 1, 0 outside. The caller passes i0Beta = besselI0(beta), the same
// for every sample of a prototype.
func kaiser(x, beta, i0Beta float64) float64 {
	if x < -1 || x > 1 {
		return 0
	}
	return besselI0(beta*math.Sqrt(1-x*x)) / i0Beta
}

// besselI0 is the modified Bessel function of the first kind, order zero,
// evaluated by its power series. For the beta values used here (< 50) the
// series converges to full precision in well under 100 terms.
func besselI0(x float64) float64 {
	sum := 1.0
	term := 1.0
	half := x / 2
	for k := 1; k < 300; k++ {
		term *= (half / float64(k)) * (half / float64(k))
		sum += term
		if term < sum*1e-18 {
			break
		}
	}
	return sum
}
