package fft

import (
	"fmt"
	"math"
	"sync"

	"soifft/internal/cvec"
	"soifft/internal/par"
)

// Variant selects the large-1D-FFT implementation strategy, mirroring the
// Fig. 10 ablation of the paper (Section 5.2):
//
//	SixStepNaive     Bailey's 6-step algorithm with explicit transposes and
//	                 a separate full-size twiddle pass: 13 memory sweeps
//	                 (Fig. 4a of the paper).
//	SixStepOpt       loops fused, columns staged through contiguous
//	                 cache-resident tiles, dynamic-block twiddle tables:
//	                 4 memory sweeps (Fig. 4b). The production variant:
//	                 every worker gathers and transforms its own tiles.
//	SixStepPipelined the SixStepOpt pass structure with explicit
//	                 load/compute/store pipelining of the column tiles
//	                 across goroutine teams, standing in for the SMT
//	                 pipelining of Fig. 5 ("latency-hiding").
//	SixStepFineGrain SixStepPipelined for the column pass, plus cooperative
//	                 multi-worker execution of each long row FFT so the
//	                 working set of a single FFT never exceeds one tile
//	                 ("fine-grain parallelization", Section 5.2.3).
type Variant int

const (
	SixStepNaive Variant = iota
	SixStepOpt
	SixStepPipelined
	SixStepFineGrain
)

// String returns the label used in benchmark output, matching Fig. 10.
func (v Variant) String() string {
	switch v {
	case SixStepNaive:
		return "6-step-naive"
	case SixStepOpt:
		return "6-step-opt"
	case SixStepPipelined:
		return "latency-hiding"
	case SixStepFineGrain:
		return "fine-grain"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// MemorySweeps returns the number of full passes over the dataset the
// variant performs (loads + stores of the entire array), the quantity the
// paper's bandwidth model is built on. The pipelined and fine-grain
// variants keep the 4-sweep structure and additionally hide latency /
// shrink working sets, plus one tile-sized core-to-core read counted as a
// fifth partial sweep in the paper's 16M analysis.
func (v Variant) MemorySweeps() int {
	if v == SixStepNaive {
		return 13
	}
	return 4
}

// AllVariants lists the ablation order of Fig. 10.
var AllVariants = []Variant{SixStepNaive, SixStepOpt, SixStepPipelined, SixStepFineGrain}

// tileCols is the number of columns staged together in the fused column
// pass ("8 columns at a time", Fig. 4b): 8 complex128 values per row of a
// tile is a full cache line pair, and 8 independent P-point FFTs is the
// outer-loop vectorization width of the paper.
const tileCols = 8

// SixStep computes large 1D FFTs of length n = n1*n2 via Bailey's 2D
// decomposition. It also supports fusing a pointwise demodulation multiply
// into the final pass (SetDemod), saving the two extra memory sweeps the
// paper describes in "Saving Bandwidth by Fusing Demodulation and FFT".
type SixStep struct {
	n, n1, n2 int
	p1, p2    *Plan
	variant   Variant
	workers   int

	// Naive variant: full-size twiddle table tw[j2*n1+k1] = W_n^{j2*k1}.
	twFull []complex128
	// Optimized variants: dynamic block scheme, W_n^e = twA[e%K]*twB[e/K]
	// with K a power of two so the split is a mask and a shift.
	twA, twB []complex128
	twK      int
	twKShift uint

	demod []complex128 // optional; length n, multiplied into natural-order output

	// lane, when non-nil, runs the 8 column FFTs of a full tile together
	// (lane-interleaved, the paper's outer-loop vectorization); edge tiles
	// and non-smooth n1 fall back to per-column transforms.
	lane *LaneBatch

	sub *SixStep // fine-grain: cooperative plan for single rows of length n2

	work sync.Pool // scratch of length n
	// Per-chunk staging buffers for the fused passes. Pooled so the hot
	// par.For bodies never allocate: a fresh make per chunk costs a page
	// fault per tile and defeats the bandwidth model.
	tilePool sync.Pool // length tileCols*(n1+rowPad), column pass
	rowPool  sync.Pool // length (n2+rowPad)*tileCols, row pass
}

// NewSixStep builds a 6-step plan for length n with the given variant.
// workers <= 0 selects GOMAXPROCS. n must be >= 4 and have a nontrivial
// divisor split (every composite n qualifies; primes are rejected — callers
// use a plain Plan for those).
func NewSixStep(n int, variant Variant, workers int) (*SixStep, error) {
	if n < 4 {
		return nil, fmt.Errorf("fft: SixStep length %d too small", n)
	}
	n1 := splitDivisor(n)
	if n1 == 1 || n1 == n {
		return nil, fmt.Errorf("fft: SixStep length %d has no 2D split (prime)", n)
	}
	n2 := n / n1
	p1, err := NewPlan(n1)
	if err != nil {
		return nil, err
	}
	p2, err := NewPlan(n2)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	s := &SixStep{n: n, n1: n1, n2: n2, p1: p1, p2: p2, variant: variant, workers: workers}
	poolVectors(&s.work, n)
	poolVectors(&s.tilePool, tileCols*(n1+rowPad))
	poolVectors(&s.rowPool, (n2+rowPad)*tileCols)
	if variant == SixStepNaive {
		s.twFull = make([]complex128, n)
		for j2 := 0; j2 < n2; j2++ {
			for k1 := 0; k1 < n1; k1++ {
				s.twFull[j2*n1+k1] = twiddle(Forward, j2*k1%n, n)
			}
		}
	} else {
		// Dynamic block scheme (Bailey): W_n^e = W_n^{e mod K} * W_n^{K*(e/K)}
		// with two tables of ~sqrt(n) entries replacing the n-entry table at
		// the cost of one extra multiply per element.
		k := nextPow2(int(math.Ceil(math.Sqrt(float64(n)))))
		s.twK = k
		s.twKShift = uint(bitLen(k) - 1)
		s.twA = twiddleTable(Forward, k, n)
		nb := (n-1)/k + 1
		s.twB = make([]complex128, nb)
		for b := 0; b < nb; b++ {
			s.twB[b] = twiddle(Forward, (b*k)%n, n)
		}
	}
	if variant != SixStepNaive {
		if lb, err := NewLaneBatch(n1, tileCols); err == nil {
			s.lane = lb
		}
	}
	if variant == SixStepFineGrain && n2 >= 64 {
		sub, err := NewSixStep(n2, SixStepOpt, workers)
		if err == nil {
			s.sub = sub
		}
		// n2 prime or too small: fall back to plain rows (sub == nil).
	}
	return s, nil
}

// N returns the transform length.
func (s *SixStep) N() int { return s.n }

// Split returns the 2D decomposition (n1 rows, n2 columns).
func (s *SixStep) Split() (n1, n2 int) { return s.n1, s.n2 }

// SetDemod installs a demodulation vector d (length n) that is multiplied
// pointwise into the natural-order output. For the optimized variants this
// is fused into the final pass at zero extra sweeps; the naive variant
// applies it as a separate pass, which is exactly the contrast the paper
// draws for the out-of-the-box MKL path on Xeon.
func (s *SixStep) SetDemod(d []complex128) {
	if d != nil && len(d) != s.n {
		panic("fft: SetDemod length mismatch")
	}
	s.demod = d
}

// splitDivisor returns the divisor of n closest to sqrt(n) (preferring the
// smaller side), so both sub-transforms stay near-square.
func splitDivisor(n int) int {
	best := 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			best = d
		}
	}
	return best
}

// twiddleOpt returns W_n^{e} from the two small tables; e must be in [0, n).
// K is a power of two, so the index split costs a mask and a shift — one
// integer division here would dominate the whole fused pass (it runs once
// per element).
func (s *SixStep) twiddleOpt(e int) complex128 {
	return s.twA[e&(s.twK-1)] * s.twB[e>>s.twKShift]
}

// Forward computes the unnormalized forward DFT of src into dst (both of
// length n). dst must not alias src.
func (s *SixStep) Forward(dst, src []complex128) {
	if len(dst) < s.n || len(src) < s.n {
		panic("fft: SixStep buffers too short")
	}
	dst, src = dst[:s.n], src[:s.n]
	if s.variant == SixStepNaive {
		s.forwardNaive(dst, src)
		return
	}
	s.forwardOpt(dst, src)
}

// forwardNaive is Fig. 4a: every step is a separate full pass.
func (s *SixStep) forwardNaive(dst, src []complex128) {
	n1, n2 := s.n1, s.n2
	t1p := s.work.Get().(*[]complex128)
	t2p := s.work.Get().(*[]complex128)
	defer s.work.Put(t1p)
	defer s.work.Put(t2p)
	t1, t2 := *t1p, *t2p

	// 1: transpose n1 x n2 -> n2 x n1.
	cvec.Transpose(t1, src, n1, n2)
	// 2: n2 independent n1-point FFTs on contiguous rows.
	par.For(s.workers, n2, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := t1[r*n1 : (r+1)*n1]
			s.p1.Forward(row, row)
		}
	})
	// 3: twiddle multiplication (separate pass, full-size table: 2 loads +
	// 1 store per element, as the paper counts).
	par.For(s.workers, n2, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := t1[r*n1 : (r+1)*n1]
			tw := s.twFull[r*n1 : (r+1)*n1]
			for i := range row {
				row[i] *= tw[i]
			}
		}
	})
	// 4: transpose n2 x n1 -> n1 x n2.
	cvec.Transpose(t2, t1, n2, n1)
	// 5: n1 independent n2-point FFTs.
	par.For(s.workers, n1, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := t2[r*n2 : (r+1)*n2]
			s.p2.Forward(row, row)
		}
	})
	// 6: transpose n1 x n2 -> n2 x n1 = natural order output.
	cvec.Transpose(dst, t2, n1, n2)
	// Demodulation as a separate stage: 3 more sweeps, like the
	// out-of-the-box library path described in Section 6.1.
	if s.demod != nil {
		par.For(s.workers, s.n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				dst[i] *= s.demod[i]
			}
		})
	}
}

// forwardOpt is Fig. 4b for every optimized variant: steps 1-4 fused into
// one tile pass, steps 5-6 (and demodulation) fused into a second: 4 memory
// sweeps total.
func (s *SixStep) forwardOpt(dst, src []complex128) {
	wp := s.work.Get().(*[]complex128)
	defer s.work.Put(wp)
	w := *wp

	s.columnPass(w, src)
	if s.variant == SixStepFineGrain && s.sub != nil {
		s.rowPassFineGrain(dst, w)
		return
	}
	// Row pass: 8 rows per chunk ("loop_b over P rows, 8 rows at a time")
	// so the permuted writeback emits full cache lines (8 consecutive k1
	// values share each k2 line of dst).
	par.ForChunked(s.workers, s.n1, tileCols, func(lo, hi int) {
		rp := s.rowPool.Get().(*[]complex128)
		defer s.rowPool.Put(rp)
		s.rowGroupFFTScatter(dst, w, lo, hi, *rp)
	})
}

// useLane reports whether the tile runs through the lane-interleaved batch
// kernel (full-width tiles with a smooth n1).
func (s *SixStep) useLane(cols int) bool { return s.lane != nil && cols == tileCols }

// gatherTile stages one tile of columns from src into buf. With the lane
// kernel the slab is row-major (pure 128-byte copies); otherwise it is a
// padded column-major slab (the padding is the paper's "contiguous buffer
// is padded to avoid cache conflict misses" — without it a power-of-two n1
// makes the 8 slab columns alias into one L1 set).
func (s *SixStep) gatherTile(buf, src []complex128, tile int) {
	n1, n2 := s.n1, s.n2
	j2lo := tile * tileCols
	cols := min(tileCols, n2-j2lo)
	if s.useLane(cols) {
		for j1 := 0; j1 < n1; j1++ {
			copy(buf[j1*tileCols:j1*tileCols+tileCols], src[j1*n2+j2lo:j1*n2+j2lo+tileCols])
		}
		return
	}
	stride := n1 + rowPad
	for j1 := 0; j1 < n1; j1++ {
		srow := src[j1*n2+j2lo : j1*n2+j2lo+cols]
		for c, v := range srow {
			buf[c*stride+j1] = v
		}
	}
}

// processTile runs the tile's n1-point FFTs, applies the stage twiddles
// (incremental exponent — one 64-bit division per row, not per element) and
// scatters the transposed rows into w with 8-wide contiguous writes.
func (s *SixStep) processTile(w, buf []complex128, tile int) {
	n1, n2 := s.n1, s.n2
	j2lo := tile * tileCols
	cols := min(tileCols, n2-j2lo)
	if s.useLane(cols) {
		// All 8 column FFTs together, lane-interleaved (outer-loop
		// vectorization); the slab stays row-major throughout.
		s.lane.Forward(buf[:n1*tileCols])
		for k1 := 0; k1 < n1; k1++ {
			row := buf[k1*tileCols : k1*tileCols+tileCols]
			out := w[k1*n2+j2lo:]
			e := j2lo * k1 % s.n
			for c := 0; c < tileCols; c++ {
				out[c] = row[c] * s.twiddleOpt(e)
				e += k1
				if e >= s.n {
					e -= s.n
				}
			}
		}
		return
	}
	stride := n1 + rowPad
	for c := 0; c < cols; c++ {
		col := buf[c*stride : c*stride+n1]
		s.p1.Forward(col, col)
	}
	for k1 := 0; k1 < n1; k1++ {
		out := w[k1*n2+j2lo:]
		e := j2lo * k1 % s.n
		for c := 0; c < cols; c++ {
			out[c] = buf[c*stride+k1] * s.twiddleOpt(e)
			e += k1
			if e >= s.n {
				e -= s.n
			}
		}
	}
}

// rowGroupFFTScatter runs the n2-point FFTs of rows [lo, hi) of w (hi-lo <=
// tileCols) and writes the outputs to dst in natural order, fusing the
// demodulation multiply when present (steps 5+6 fused, "Saving Bandwidth by
// Fusing Demodulation and FFT"). Writing all rows of a group per k2 makes
// the stride-n1 permutation emit hi-lo consecutive elements at a time.
// rbuf must have length >= n2*(hi-lo).
func (s *SixStep) rowGroupFFTScatter(dst, w []complex128, lo, hi int, rbuf []complex128) {
	n1, n2 := s.n1, s.n2
	rows := hi - lo
	// The buffer rows are padded by rowPad elements so that reading column
	// k2 across the group does not alias into a single cache set when n2
	// is a power of two (the "buffer is padded to avoid cache conflict
	// misses" of Section 5.2.3).
	stride := n2 + rowPad
	for r := 0; r < rows; r++ {
		s.p2.Forward(rbuf[r*stride:r*stride+n2], w[(lo+r)*n2:(lo+r+1)*n2])
	}
	if s.demod != nil {
		for k2 := 0; k2 < n2; k2++ {
			base := lo + n1*k2
			for r := 0; r < rows; r++ {
				dst[base+r] = rbuf[r*stride+k2] * s.demod[base+r]
			}
		}
		return
	}
	for k2 := 0; k2 < n2; k2++ {
		base := lo + n1*k2
		for r := 0; r < rows; r++ {
			dst[base+r] = rbuf[r*stride+k2]
		}
	}
}

// rowPad is the padding (in elements) between staged rows; one cache line
// pair keeps group-column reads spread across sets.
const rowPad = 8

// columnPass runs the fused steps 1-4 of every optimized variant into w.
// The variants differ only in how the tiles are scheduled: SixStepOpt hands
// each worker runs of 8 tiles, which it gathers and transforms itself
// through a pooled staging buffer; the others pipeline a loader team into a
// compute team.
func (s *SixStep) columnPass(w, src []complex128) {
	ntiles := (s.n2 + tileCols - 1) / tileCols
	if s.variant != SixStepOpt {
		s.columnPassPipelined(w, src, ntiles)
		return
	}
	par.ForChunked(s.workers, ntiles, 8, func(lo, hi int) {
		bp := s.tilePool.Get().(*[]complex128)
		defer s.tilePool.Put(bp)
		for t := lo; t < hi; t++ {
			s.gatherTile(*bp, src, t)
			s.processTile(w, *bp, t)
		}
	})
}

// columnPassPipelined splits the workers into a loader team and a compute
// team connected by a channel of staged tiles, emulating the SMT
// load/FFT/store pipeline of Fig. 5: while one team copies tile i+1 out of
// main memory, the other runs the in-cache FFT+twiddle of tile i.
func (s *SixStep) columnPassPipelined(w, src []complex128, ntiles int) {
	loaders := max(1, s.workers/2)
	workers := max(1, s.workers-loaders)
	type staged struct {
		tile int
		buf  []complex128
	}
	// Prime the pipeline from the tile pool: after the first transform the
	// staging buffers are warm and no allocation happens per call.
	free := make(chan []complex128, loaders+workers+2)
	pooled := make([]*[]complex128, cap(free))
	for i := range pooled {
		pooled[i] = s.tilePool.Get().(*[]complex128)
		free <- *pooled[i]
	}
	ready := make(chan staged, cap(free))

	var loadWG sync.WaitGroup
	loadWG.Add(loaders)
	next := make(chan int, ntiles)
	for t := 0; t < ntiles; t++ {
		next <- t
	}
	close(next)
	for l := 0; l < loaders; l++ {
		go func() {
			defer loadWG.Done()
			for t := range next {
				buf := <-free
				s.gatherTile(buf, src, t)
				ready <- staged{tile: t, buf: buf}
			}
		}()
	}
	go func() {
		loadWG.Wait()
		close(ready)
	}()

	var compWG sync.WaitGroup
	compWG.Add(workers)
	for c := 0; c < workers; c++ {
		go func() {
			defer compWG.Done()
			for st := range ready {
				s.processTile(w, st.buf, st.tile)
				free <- st.buf
			}
		}()
	}
	compWG.Wait()
	// Both teams have drained, so every backing array is idle again; the
	// headers in pooled still reference them all. Return them for the next
	// transform.
	for _, bp := range pooled {
		s.tilePool.Put(bp)
	}
}

// rowPassFineGrain processes rows sequentially but lets every worker
// cooperate on each single n2-point FFT through a nested 2D decomposition,
// so the per-FFT working set stays tile-sized instead of n2-sized — the
// paper's answer to a 32K-point FFT overflowing a 512 KB private L2.
func (s *SixStep) rowPassFineGrain(dst, w []complex128) {
	n1, n2 := s.n1, s.n2
	rbuf := make([]complex128, n2)
	for k1 := 0; k1 < n1; k1++ {
		row := w[k1*n2 : (k1+1)*n2]
		s.sub.Forward(rbuf, row) // internally parallel across all workers
		if s.demod != nil {
			for k2 := 0; k2 < n2; k2++ {
				idx := k1 + n1*k2
				dst[idx] = rbuf[k2] * s.demod[idx]
			}
		} else {
			for k2 := 0; k2 < n2; k2++ {
				dst[k1+n1*k2] = rbuf[k2]
			}
		}
	}
}
