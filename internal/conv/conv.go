// Package conv implements the convolution-and-oversampling step W*x of the
// SOI factorization (Section 5.3 of the paper), in the three variants whose
// ablation is Fig. 11:
//
//	Baseline     the straightforward row-wise form of Fig. 6a: for each
//	             chunk, all nmu*S rows are produced by length-B inner
//	             products; threads take chunks of rows. Its working set is
//	             the full nmu*S*B distinct matrix elements per chunk, which
//	             grows with the segment count.
//	Interchange  the decomposed form of Fig. 6b / Fig. 7: the matrix-vector
//	             product splits into S independent sub-problems (one per
//	             polyphase lane) because every S-by-S block of W is
//	             diagonal; loop_a over lanes becomes the outer, thread-
//	             parallel loop and the per-lane working set is a constant
//	             nmu*B elements regardless of scale.
//	Buffered     Interchange plus staging of the lane's stride-S inputs
//	             through a contiguous buffer, a tile of chunks at a time,
//	             converting B long-stride loads per inner product into B
//	             contiguous loads plus about dmu strided loads per chunk
//	             ("Avoiding Cache Conflict Misses by Buffering"). The
//	             production variant: it also multiplies by window.Filter's
//	             real LaneTaps and rotates once per output (4B+6 flops
//	             against the others' 8B; DESIGN.md Section 2), and ApplyTile
//	             hands a caller each tile while it is cache-resident.
//
// All variants agree up to floating-point rounding; tests pin them against
// each other and against a direct dense evaluation of W.
//
// The real-weighted sums of Buffered come from one of two kernels that agree
// bit for bit: dotReal, pure Go, the build for every target and the oracle;
// and on amd64 processors with AVX2 dotRowsAVX2 (dot_amd64.s), which sums
// all NMu rows of a window in one call, the same products added in the same
// order, four rows sharing each load of the window. Which one runs is
// decided once at init from CPUID; there is nothing to configure.
package conv

import (
	"fmt"

	"soifft/internal/par"
	"soifft/internal/window"
)

// Variant selects the convolution implementation strategy.
type Variant int

const (
	Baseline Variant = iota
	Interchange
	Buffered
)

// String returns the label used in benchmark output, matching Fig. 11.
func (v Variant) String() string {
	switch v {
	case Baseline:
		return "baseline"
	case Interchange:
		return "interchange"
	case Buffered:
		return "buffering"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// AllVariants lists the ablation order of Fig. 11.
var AllVariants = []Variant{Baseline, Interchange, Buffered}

// InputLen returns the input span chunks [c0, c1) read: the last chunk
// starts at (c1-1)*DMu*S and reads B*S elements. The symbolic form below
// assumes a non-empty range c1 > c0 (the degenerate empty range returns 0).
func InputLen(f *window.Filter, c0, c1 int) int {
	if c1 <= c0 {
		return 0
	}
	return (c1-1-c0)*f.DMu*f.Segments + f.B*f.Segments
}

// OutputLen returns the number of outputs chunks [c0, c1) produce.
func OutputLen(f *window.Filter, c0, c1 int) int {
	return (c1 - c0) * f.NMu * f.Segments
}

// Apply computes the convolution outputs for chunks [c0, c1) of the global
// problem. x[0] must correspond to global input index c0*DMu*Segments and
// len(x) >= InputLen(f, c0, c1); u receives OutputLen(f, c0, c1) values,
// u[(c-c0)*NMu*S + a*S + j] being global output (c*NMu + a)*S + j.
// workers <= 0 selects GOMAXPROCS.
func Apply(v Variant, f *window.Filter, u, x []complex128, c0, c1, workers int) {
	if c1 <= c0 {
		return
	}
	checkLens(f, u, x, c0, c1)
	switch v {
	case Baseline:
		applyBaseline(f, u, x, c0, c1, workers)
	case Interchange:
		applyInterchange(f, u, x, c0, c1, workers)
	case Buffered:
		applyBuffered(f, u, x, c0, c1, workers)
	default:
		panic(fmt.Sprintf("conv: unknown variant %d", int(v)))
	}
}

// checkLens panics unless x and u cover the non-empty chunk range [c0, c1).
func checkLens(f *window.Filter, u, x []complex128, c0, c1 int) {
	if len(x) < InputLen(f, c0, c1) {
		panic(fmt.Sprintf("conv: input too short: len(x)=%d need %d", len(x), InputLen(f, c0, c1)))
	}
	if len(u) < OutputLen(f, c0, c1) {
		panic(fmt.Sprintf("conv: output too short: len(u)=%d need %d", len(u), OutputLen(f, c0, c1)))
	}
}

// applyBaseline walks output rows in order (Fig. 6a). Parallelization
// distributes chunks to workers; within a chunk, every row touches all
// nmu*S*B distinct taps.
func applyBaseline(f *window.Filter, u, x []complex128, c0, c1, workers int) {
	s := f.Segments
	nmu, dmu, b := f.NMu, f.DMu, f.B
	nchunks := c1 - c0
	par.For(workers, nchunks, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			in := x[c*dmu*s:]
			out := u[c*nmu*s:]
			for a := 0; a < nmu; a++ {
				taps := f.Taps[a]
				for j := 0; j < s; j++ {
					var accRe, accIm float64
					for bb := 0; bb < b; bb++ {
						t := taps[bb*s+j]
						v := in[bb*s+j]
						tr, ti := real(t), imag(t)
						vr, vi := real(v), imag(v)
						accRe += tr*vr - ti*vi
						accIm += tr*vi + ti*vr
					}
					out[a*s+j] = complex(accRe, accIm)
				}
			}
		}
	})
}

// applyInterchange makes the lane loop outermost (Fig. 7: loop_a over the S
// sub-matrices, thread-parallel, no data shared between iterations).
func applyInterchange(f *window.Filter, u, x []complex128, c0, c1, workers int) {
	s := f.Segments
	nmu, dmu, b := f.NMu, f.DMu, f.B
	nchunks := c1 - c0
	par.For(workers, s, func(jlo, jhi int) {
		// Per-lane compact taps: laneTaps[a][bb] = Taps[a][bb*s+j]. This is
		// the constant nmu*B working set of the decomposed form.
		laneTaps := make([][]complex128, nmu) // per-worker scratch: one make per worker, amortized over the whole lane range
		for a := range laneTaps {
			laneTaps[a] = make([]complex128, b) // per-worker scratch: one make per worker, amortized over the whole lane range
		}
		for j := jlo; j < jhi; j++ {
			for a := 0; a < nmu; a++ {
				src := f.Taps[a]
				dst := laneTaps[a]
				// Ranging over dst (len b) makes the compacted store
				// check-free; only the strided gather keeps its check.
				for bb := range dst {
					dst[bb] = src[bb*s+j]
				}
			}
			for c := 0; c < nchunks; c++ {
				base := c * dmu * s
				for a := 0; a < nmu; a++ {
					var accRe, accIm float64
					// Ranging over the compact taps yields t without a
					// bounds check; the strided x load is the one access
					// the compiler cannot prove and stays budgeted.
					for bb, t := range laneTaps[a] {
						v := x[base+bb*s+j]
						tr, ti := real(t), imag(t)
						vr, vi := real(v), imag(v)
						accRe += tr*vr - ti*vi
						accIm += tr*vi + ti*vr
					}
					u[(c*nmu+a)*s+j] = complex(accRe, accIm)
				}
			}
		}
	})
}

// tileBytes bounds the outputs of one tile of the Buffered kernel, so that
// they are still in the first-level cache when the tile's consumer reads them.
const tileBytes = 32 << 10

// TileChunks returns the number of chunks the Buffered kernel computes per
// tile: as many as keep the tile's NMu*Segments outputs per chunk within
// tileBytes, and at least one.
func TileChunks(f *window.Filter) int {
	return max(1, tileBytes/16/(f.NMu*f.Segments))
}

// ApplyTile is Apply on the calling goroutine with caller-provided scratch:
// the Buffered variant stages each lane's inputs through stage and allocates
// nothing; the other variants ignore stage. A caller that walks a chunk range
// in tiles of TileChunks chunks gets every tile's outputs while they are
// still cache-resident, bit-identical to one Apply over the range.
func ApplyTile(v Variant, f *window.Filter, u, x []complex128, c0, c1 int, stage []complex128) {
	if v != Buffered || c1 <= c0 {
		Apply(v, f, u, x, c0, c1, 1)
		return
	}
	checkLens(f, u, x, c0, c1)
	tileBuffered(f, u, x, c1-c0, stage)
}

// applyBuffered walks the chunk range in tiles of TileChunks chunks, split
// across the workers; tiles share no state.
func applyBuffered(f *window.Filter, u, x []complex128, c0, c1, workers int) {
	s := f.Segments
	nchunks := c1 - c0
	tc := TileChunks(f)
	ntiles := (nchunks + tc - 1) / tc
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	workers = min(workers, ntiles)
	stageLen := (tc-1)*f.DMu + f.B
	stage := make([]complex128, workers*stageLen)
	// One index per worker, so that each owns a run of stage and of the tiles.
	par.For(workers, workers, func(wlo, whi int) {
		for w := wlo; w < whi; w++ {
			for t := w * ntiles / workers; t < (w+1)*ntiles/workers; t++ {
				c := t * tc
				tileBuffered(f, u[c*f.NMu*s:], x[c*f.DMu*s:], min(tc, nchunks-c), stage[w*stageLen:][:stageLen])
			}
		}
	})
}

// rowGroup is the number of rows of a lane handed to one dotRows call: the
// sums live in a fixed array on tileBuffered's stack, so a lane with more
// rows (NMu > 16; the paper's are 3 to 9) takes more than one call.
const rowGroup = 16

// tileBuffered computes n chunks with the input staging and the real-tap
// factorization (DESIGN.md Section 2). Lane j's (n-1)*dmu+B stride-S inputs
// are gathered once into the linear buffer stage, where chunk c's window is
// the contiguous run stage[c*dmu : c*dmu+B]; every tap of the lane is
// window.Filter's real LaneTaps entry times one unit phase per (j, a), so an
// output is a real-weighted sum of the window rotated once at the store:
// 4*B+6 flops instead of 8*B. The sums of all of a window's rows come from
// one dotRows call — the AVX2 kernel where the processor has it, dotReal
// elsewhere, bit-identical.
func tileBuffered(f *window.Filter, u, x []complex128, n int, stage []complex128) {
	s := f.Segments
	nmu, dmu, b := f.NMu, f.DMu, f.B
	stage = stage[:(n-1)*dmu+b]
	var sumBuf [rowGroup]complex128
	for j := 0; j < s; j++ {
		taps := f.LaneTaps[j*nmu*b:][:nmu*b]
		dup := f.LaneTapsDup[2*j*nmu*b:][:2*nmu*b]
		phase := f.LanePhase[j*nmu:][:nmu]
		for i := range stage {
			stage[i] = x[i*s+j]
		}
		for c := 0; c < n; c++ {
			win := stage[c*dmu:][:b]
			out := u[c*nmu*s+j:]
			for a0 := 0; a0 < nmu; a0 += rowGroup {
				ph := phase[a0:min(a0+rowGroup, nmu)]
				sums := sumBuf[:len(ph)]
				dotRows(sums, taps[a0*b:], dup[2*a0*b:], win)
				for a, z := range sums {
					re, im := real(z), imag(z)
					out[(a0+a)*s] = complex(re*real(ph[a])-im*imag(ph[a]), re*imag(ph[a])+im*real(ph[a]))
				}
			}
		}
	}
}

// dotRowsGo is the portable dotRows: dotReal on each row of taps (LaneTaps
// layout, len(win) entries a row).
func dotRowsGo(sums []complex128, taps []float64, win []complex128) {
	b := len(win)
	for a := range sums {
		re, im := dotReal(taps[a*b:][:b], win)
		sums[a] = complex(re, im)
	}
}

// dotReal returns sum_k r[k]*w[k] for real weights r, as separate real and
// imaginary sums. Each group of four taps feeds two accumulator pairs
// through a two-product tree, so four multiply-add chains are in flight and
// the loop is bound by multiply/add throughput, not by one add's latency.
func dotReal(r []float64, w []complex128) (re, im float64) {
	w = w[:len(r)]
	var re0, im0, re1, im1 float64
	for k := len(r) &^ 3; k < len(r); k++ { // the len(r)%4 tail taps
		re0 += r[k] * real(w[k])
		im0 += r[k] * imag(w[k])
	}
	for i := 0; i+4 <= len(r); i += 4 {
		r4, w4 := r[i:i+4:i+4], w[i:i+4:i+4]
		re0 += r4[0]*real(w4[0]) + r4[2]*real(w4[2])
		im0 += r4[0]*imag(w4[0]) + r4[2]*imag(w4[2])
		re1 += r4[1]*real(w4[1]) + r4[3]*real(w4[3])
		im1 += r4[1]*imag(w4[1]) + r4[3]*imag(w4[3])
	}
	return re0 + re1, im0 + im1
}

// ApplyDense multiplies the dense W matrix for chunks [c0, c1) against x —
// the O(everything) reference the fast variants are verified against in
// tests. Only usable for small problems.
func ApplyDense(f *window.Filter, u, x []complex128, c0, c1 int) {
	s := f.Segments
	nmu, dmu, b := f.NMu, f.DMu, f.B
	for c := 0; c < c1-c0; c++ {
		for a := 0; a < nmu; a++ {
			for j := 0; j < s; j++ {
				var acc complex128
				for bb := 0; bb < b; bb++ {
					acc += f.Taps[a][bb*s+j] * x[(c*dmu+bb)*s+j]
				}
				u[(c*nmu+a)*s+j] = acc
			}
		}
	}
}
