// Package soifft is a pure-Go implementation of the Segment-of-Interest
// (SOI) FFT — the low-communication distributed 1D FFT factorization of
//
//	Park, Bikshandi, Vaidyanathan, Tang, Dubey, Kim.
//	"Tera-Scale 1D FFT with Low-Communication Algorithm and Intel Xeon Phi
//	Coprocessors", SC '13.
//
// The SOI factorization computes an in-order N-point DFT across P segments
// with a single all-to-all exchange (a conventional distributed
// Cooley-Tukey transform needs three), at the cost of an oversampling
// factor mu = 8/7 and a width-B convolution:
//
//	y = I_P (x) ( W^-1 Proj F_M' ) Perm ( I_M' (x) F_P ) W x
//
// # Quick start
//
//	plan, err := soifft.NewPlan(n, soifft.DefaultConfig())
//	...
//	err = plan.Forward(dst, src) // dst ~ FFT(src), relative error ~1e-8
//
// The library also ships a serial mixed-radix FFT (used internally and
// exposed via FFT/IFFT), an in-process distributed runtime (Cluster), the
// Cooley-Tukey distributed baseline, and the paper's analytic performance
// model that regenerates every modelled figure of the paper's evaluation —
// see cmd/soibench and EXPERIMENTS.md.
//
// # Accuracy
//
// SOI is an approximate factorization: aliasing leakage through the
// convolution window bounds the relative error. With the paper's
// parameters (mu = 8/7, B = 72) the bound is ~2e-8; with mu = 5/4 it drops
// below 1e-9. Plan.EstimatedError reports the designed bound.
package soifft

import (
	"soifft/internal/fft"
	"soifft/internal/soi"
	"soifft/internal/window"
)

// Config selects the SOI parameters and the intra-node parallelism. The
// node-local strategies are always the paper's optimized ones.
type Config struct {
	// Segments is the number of spectrum segments P (the algebraic P of
	// the factorization). Default 8. N/Segments must be a multiple of
	// OversampleDen*Segments.
	Segments int
	// OversampleNum/OversampleDen form mu > 1. Default 8/7 (Table 3 of the
	// paper); 5/4 trades ~12% more flops for ~30x better accuracy.
	OversampleNum, OversampleDen int
	// ConvWidth is the convolution width B in blocks of Segments taps.
	// Default 72 (the paper's value).
	ConvWidth int
	// Workers bounds intra-node parallelism; 0 means GOMAXPROCS.
	Workers int
}

// DefaultConfig returns the paper's production configuration.
func DefaultConfig() Config {
	return Config{
		Segments:      8,
		OversampleNum: 8, OversampleDen: 7,
		ConvWidth: 72,
	}
}

// Canonical returns cfg with every structural default made explicit
// (Segments, OversampleNum/Den, ConvWidth). Two configs that canonicalize
// equal produce interchangeable plans for a given length, which makes the
// canonical form the natural plan-cache key (internal/serve keys its LRU on
// it).
func (c Config) Canonical() Config {
	if c.Segments == 0 {
		c.Segments = 8
	}
	if c.OversampleNum == 0 {
		c.OversampleNum, c.OversampleDen = 8, 7
	}
	if c.ConvWidth == 0 {
		c.ConvWidth = 72
	}
	return c
}

// params converts the public config to the internal parameter set.
func (c Config) params(n int) (window.Params, soi.Options, error) {
	c = c.Canonical()
	p := window.Params{
		N:        n,
		Segments: c.Segments,
		NMu:      c.OversampleNum,
		DMu:      c.OversampleDen,
		B:        c.ConvWidth,
	}
	if err := p.Validate(); err != nil {
		return p, soi.Options{}, err
	}
	opts := soi.DefaultOptions()
	opts.Workers = c.Workers
	return p, opts, nil
}

// Plan is a reusable SOI transform plan for one length. Safe for concurrent
// use.
type Plan struct {
	inner *soi.Plan
}

// NewPlan designs the SOI operator for length n.
func NewPlan(n int, cfg Config) (*Plan, error) {
	p, opts, err := cfg.params(n)
	if err != nil {
		return nil, err
	}
	inner, err := soi.NewPlan(p, opts)
	if err != nil {
		return nil, err
	}
	return &Plan{inner: inner}, nil
}

// N returns the transform length.
func (p *Plan) N() int { return p.inner.Win.N }

// Segments returns the segment count.
func (p *Plan) Segments() int { return p.inner.Win.Segments }

// EstimatedError returns the designed relative-accuracy bound of the plan.
func (p *Plan) EstimatedError() float64 { return p.inner.EstimatedError() }

// Forward computes the unnormalized in-order forward DFT of src into dst.
// Both must have length >= N; dst must not alias src.
func (p *Plan) Forward(dst, src []complex128) error { return p.inner.Forward(dst, src) }

// Inverse computes the normalized inverse DFT of src into dst.
func (p *Plan) Inverse(dst, src []complex128) error { return p.inner.Inverse(dst, src) }

// FFT computes the unnormalized forward DFT of x by the library's exact
// mixed-radix kernel (any length; O(n log n)). It is the reference the SOI
// path is validated against and a convenient general-purpose FFT.
func FFT(x []complex128) ([]complex128, error) {
	p, err := fft.NewPlan(len(x))
	if err != nil {
		return nil, err
	}
	out := make([]complex128, len(x))
	p.Forward(out, x)
	return out, nil
}

// IFFT computes the normalized inverse DFT of x.
func IFFT(x []complex128) ([]complex128, error) {
	p, err := fft.NewPlan(len(x))
	if err != nil {
		return nil, err
	}
	out := make([]complex128, len(x))
	p.Inverse(out, x)
	return out, nil
}

// ValidLength reports whether n admits an SOI plan under cfg (exactly when
// NewPlan(n, cfg) succeeds), and if not, the smallest n' >= n that does.
// The valid lengths are the positive multiples of the chunk granularity
// Segments^2 * OversampleDen of the canonical config; when cfg itself is
// invalid (say, mu = 10/8, or a convolution narrower than OversampleDen),
// no length is, and next is 0.
func ValidLength(n int, cfg Config) (ok bool, next int) {
	c := cfg.Canonical()
	gran := c.Segments * c.Segments * c.OversampleDen
	if _, _, err := c.params(gran); err != nil {
		return false, 0
	}
	if _, _, err := c.params(n); err == nil {
		return true, n
	}
	return false, max(n/gran+1, 1) * gran
}
