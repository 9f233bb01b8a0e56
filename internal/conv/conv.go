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
//	Buffered     Interchange plus staging of the lanes' stride-S inputs
//	             through a lane-major buffer, a tile of chunks at a time,
//	             gathered in one sequential pass over the input, so that
//	             every inner product reads B contiguous elements ("Avoiding
//	             Cache Conflict Misses by Buffering"). The production
//	             variant: it also multiplies by window.Filter's real LaneTaps
//	             and rotates once per output (4B+6 flops against the others'
//	             8B; DESIGN.md Section 2).
//
// Apply stores the outputs row-major, as W*x is ordered. ApplyTile computes
// one tile on the calling goroutine and stores it lane-major — each lane's
// outputs one contiguous run, the layout Fig. 7's loop interchange produces
// and the Segments-point FFT over the tile's columns reads — while it is
// cache-resident. Every variant reaches both layouts through one pair of
// (row, lane) output strides. All variants agree up to floating-point
// rounding; tests pin them against each other and against a direct dense
// evaluation of W.
//
// The rotated sums of Buffered come from one of three kernels: dotReal and a
// Go rotation, pure Go, the build for every target; on amd64 processors with
// AVX2 and FMA dotRowsFMA (dot_amd64.s), which sums, rotates and stores all
// NMu rows of every window of a lane's tile in one call, four rows sharing
// each load of the window, one fused multiply-add per tap pair; and where the
// processor also has AVX-512F, dotRowsAVX512 for every block of four rows by
// four windows, one 512-bit fused multiply-add per four taps, each load
// shared by four outputs, with dotRowsFMA for the rows and windows left over.
// dotRowsAVX512 does dotRowsFMA's operations in dotRowsFMA's order, so the
// two give the same bits, pinned to one math.FMA twin in the tests. dotReal
// sums in a different order and rounds differently; every kernel is within
// the dot product's rounding bound (TestDotRowsRoundingBound). The staging
// gather likewise has a Go loop and an AVX2 twin (gatherLanesAVX2), copies
// that agree trivially. Which ones run is decided once at init from CPUID;
// there is nothing to configure.
package conv

import (
	"fmt"

	"soifft/internal/par"
	"soifft/internal/window"
)

// Variant selects the convolution implementation strategy. Buffered, the
// production one, is the zero value; Baseline and Interchange are the
// earlier steps of the Fig. 11 ablation.
type Variant int

const (
	Buffered Variant = iota
	Baseline
	Interchange
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
	checkLens(f, u, x, c0, c1, OutputLen(f, c0, c1))
	if v == Buffered {
		applyBuffered(f, u, x, c0, c1, workers)
		return
	}
	applyUnbuffered(v, f, u, f.Segments, 1, x, c0, c1, workers)
}

// applyUnbuffered runs Baseline or Interchange, storing row r of the range's
// lane j at u[r*rs + j*ls].
func applyUnbuffered(v Variant, f *window.Filter, u []complex128, rs, ls int, x []complex128, c0, c1, workers int) {
	switch v {
	case Baseline:
		applyBaseline(f, u, rs, ls, x, c0, c1, workers)
	case Interchange:
		applyInterchange(f, u, rs, ls, x, c0, c1, workers)
	default:
		panic(fmt.Sprintf("conv: unknown variant %d", int(v)))
	}
}

// checkLens panics unless x covers the non-empty chunk range [c0, c1) and u
// holds nu outputs.
func checkLens(f *window.Filter, u, x []complex128, c0, c1, nu int) {
	if len(x) < InputLen(f, c0, c1) {
		panic(fmt.Sprintf("conv: input too short: len(x)=%d need %d", len(x), InputLen(f, c0, c1)))
	}
	if len(u) < nu {
		panic(fmt.Sprintf("conv: output too short: len(u)=%d need %d", len(u), nu))
	}
}

// applyBaseline walks output rows in order (Fig. 6a). Parallelization
// distributes chunks to workers; within a chunk, every row touches all
// nmu*S*B distinct taps. Row r of the range's lane j is stored at
// u[r*rs + j*ls]: rs = S, ls = 1 is Apply's row-major layout, rs = 1,
// ls = ldu the lane-major tile of ApplyTile.
func applyBaseline(f *window.Filter, u []complex128, rs, ls int, x []complex128, c0, c1, workers int) {
	s := f.Segments
	nmu, dmu, b := f.NMu, f.DMu, f.B
	nchunks := c1 - c0
	par.For(workers, nchunks, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			in := x[c*dmu*s:]
			out := u[c*nmu*rs:]
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
					out[a*rs+j*ls] = complex(accRe, accIm)
				}
			}
		}
	})
}

// applyInterchange makes the lane loop outermost (Fig. 7: loop_a over the S
// sub-matrices, thread-parallel, no data shared between iterations). Outputs
// are stored as in applyBaseline.
func applyInterchange(f *window.Filter, u []complex128, rs, ls int, x []complex128, c0, c1, workers int) {
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
					// the compiler cannot prove.
					for bb, t := range laneTaps[a] {
						v := x[base+bb*s+j]
						tr, ti := real(t), imag(t)
						vr, vi := real(v), imag(v)
						accRe += tr*vr - ti*vi
						accIm += tr*vi + ti*vr
					}
					u[(c*nmu+a)*rs+j*ls] = complex(accRe, accIm)
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

// TileStride returns the lane stride of a tile of TileChunks chunks for
// ApplyTile: its NMu*TileChunks rows, laid out by offLattice.
func TileStride(f *window.Filter) int {
	return offLattice(TileChunks(f) * f.NMu)
}

// StageLen returns the length of the staging buffer ApplyTile's Buffered
// variant needs: the inputs of all Segments lanes of a tile, one lane every
// stageStride elements.
func StageLen(f *window.Filter) int {
	return f.Segments * stageStride(f)
}

// stageStride is the lane stride of the Buffered kernel's staging: the
// (T-1)*DMu+B inputs a lane of a tile of T = TileChunks chunks reads, laid
// out by offLattice.
func stageStride(f *window.Filter) int {
	return offLattice((TileChunks(f)-1)*f.DMu + f.B)
}

// offLattice returns the row stride, in complex128, for rows of n elements:
// n rounded up to whole 64-byte cache lines, so that every row starts on one
// (the vector kernels' 32-byte accesses then never straddle two), plus one
// more line when that is a whole number of 4 KiB pages, so that the rows do
// not all fall in one L1 set.
func offLattice(n int) int {
	n = (n + 3) &^ 3
	if n%256 == 0 {
		return n + 4
	}
	return n
}

// ApplyTile is Apply on the calling goroutine with caller-provided scratch,
// for at most TileChunks(f) chunks, storing the tile lane-major: u[j*ldu + r]
// is row r of the range in lane j, global output ((c0*NMu + r)*S + j), for
// ldu >= (c1-c0)*NMu — the layout in which each lane's outputs are one
// contiguous run (Fig. 7). The Buffered variant stages the tile's inputs
// through stage (length >= StageLen(f)) and allocates nothing; the other
// variants ignore stage. Every output is bit-identical to Apply's.
func ApplyTile(v Variant, f *window.Filter, u []complex128, ldu int, x []complex128, c0, c1 int, stage []complex128) {
	if c1 <= c0 {
		return
	}
	rows := (c1 - c0) * f.NMu
	if ldu < rows {
		panic(fmt.Sprintf("conv: tile stride %d below its %d rows", ldu, rows))
	}
	checkLens(f, u, x, c0, c1, (f.Segments-1)*ldu+rows)
	if v == Buffered {
		tileBuffered(f, u, 1, ldu, x, c1-c0, stage)
		return
	}
	applyUnbuffered(v, f, u, 1, ldu, x, c0, c1, 1)
}

// applyBuffered walks the chunk range in tiles of TileChunks chunks, split
// across the workers; tiles share no state. The tiles are stored row-major,
// as Apply's contract has it.
func applyBuffered(f *window.Filter, u, x []complex128, c0, c1, workers int) {
	s := f.Segments
	nchunks := c1 - c0
	tc := TileChunks(f)
	ntiles := (nchunks + tc - 1) / tc
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	workers = min(workers, ntiles)
	stageLen := StageLen(f)
	stage := make([]complex128, workers*stageLen)
	// One index per worker, so that each owns a run of stage and of the tiles.
	par.For(workers, workers, func(wlo, whi int) {
		for w := wlo; w < whi; w++ {
			for t := w * ntiles / workers; t < (w+1)*ntiles/workers; t++ {
				c := t * tc
				tileBuffered(f, u[c*f.NMu*s:], s, 1, x[c*f.DMu*s:], min(tc, nchunks-c), stage[w*stageLen:][:stageLen])
			}
		}
	})
}

// tileBuffered computes n <= TileChunks(f) chunks with the input staging and
// the real-tap factorization (DESIGN.md Section 2), storing row r of lane j
// at u[r*rs + j*ls]. One sequential pass over x (gatherLanes) gathers the
// (n-1)*dmu+B inputs of every lane into stage, lane j's from
// stage[j*stageStride], where chunk c's window is the contiguous run at
// c*dmu. Every tap of the lane is
// window.Filter's real LaneTaps entry times one unit phase per (j, a), so an
// output is a real-weighted sum of the window rotated once: 4*B+6 flops
// instead of 8*B. The sums of all of a lane's rows over all n windows,
// rotated and stored, come from one dotRows call — the vector kernels where
// the processor has them, dotReal elsewhere.
func tileBuffered(f *window.Filter, u []complex128, rs, ls int, x []complex128, n int, stage []complex128) {
	s := f.Segments
	nmu, dmu, b := f.NMu, f.DMu, f.B
	l, sl := (n-1)*dmu+b, stageStride(f)
	stage = stage[:(s-1)*sl+l]
	gatherLanes(stage, sl, x, s, l)
	for j := 0; j < s; j++ {
		lane := stage[j*sl:][:l]
		taps := f.LaneTaps[j*nmu*b:][:nmu*b]
		dup := f.LaneTapsDup[2*j*nmu*b:][:2*nmu*b]
		phase := f.LanePhase[j*nmu:][:nmu]
		dotRows(u[j*ls:], rs, nmu*rs, taps, dup, lane, dmu, n, phase)
	}
}

// gatherLanesGo is the portable gatherLanes for inputs [i0, l): one
// sequential pass over x, input i of lane j to stage[j*sl + i].
func gatherLanesGo(stage []complex128, sl int, x []complex128, s, i0, l int) {
	for i, k := i0, i0*s; i < l; i, k = i+1, k+s {
		for j, v := range x[k : k+s] {
			stage[j*sl+i] = v
		}
	}
}

// dotRowsGo is the portable dotRows: for each of n windows c, the b elements
// from lane[c*wstep], dotReal on each row of taps (LaneTaps layout, b entries
// a row), rotated by the row's phase and stored at out[c*ostep + a*stride].
func dotRowsGo(out []complex128, stride, ostep int, taps []float64, lane []complex128, wstep, n int, phase []complex128) {
	b := len(taps) / len(phase)
	for c := 0; c < n; c++ {
		win, o := lane[c*wstep:][:b], out[c*ostep:]
		for a, ph := range phase {
			re, im := dotReal(taps[a*b:][:b], win)
			o[a*stride] = complex(re*real(ph)-im*imag(ph), re*imag(ph)+im*real(ph))
		}
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
