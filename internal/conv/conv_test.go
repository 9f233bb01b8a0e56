package conv

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"soifft/internal/cvec"
	"soifft/internal/ref"
	"soifft/internal/window"
)

func design(t testing.TB, p window.Params) *window.Filter {
	t.Helper()
	f, err := window.Design(p)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// eachKernel runs fn once under every kernel the host can execute.
func eachKernel(t *testing.T, fn func(t *testing.T)) {
	for _, k := range kernels() {
		restore := useKernel(k)
		t.Run(k, fn)
		restore()
	}
}

// dotOperands carves the operands of one dotRows call of shape d out of
// larger buffers filled with NaN: the element directly after (and before)
// every operand is a sentinel that poisons any result it reaches, and d.off
// shifts the lane by whole elements, the misalignment a lane's windows have
// in tileBuffered.
func dotOperands(d dotShape, draw func() float64) (taps, dup []float64, lane []complex128) {
	nan := math.NaN()
	tapBuf := make([]float64, 1+d.rows*d.b+1)
	dupBuf := make([]float64, 1+2*d.rows*d.b+1)
	laneBuf := make([]complex128, d.off+d.laneLen()+1)
	for i := range tapBuf {
		tapBuf[i] = nan
	}
	for i := range dupBuf {
		dupBuf[i] = nan
	}
	for i := range laneBuf {
		laneBuf[i] = complex(nan, nan)
	}
	taps, dup, lane = tapBuf[1:][:d.rows*d.b], dupBuf[1:][:2*d.rows*d.b], laneBuf[d.off:][:d.laneLen()]
	for i := range taps {
		taps[i] = draw()
		dup[2*i], dup[2*i+1] = taps[i], taps[i]
	}
	for i := range lane {
		lane[i] = complex(draw(), draw())
	}
	return taps, dup, lane
}

// phases returns rows unit phases cut out of a NaN-filled buffer, so that a
// kernel reading past them reads NaN: random angles, with one in three drawn
// from phases with ±0, ±1, ±i and denormal parts when specials is set.
func phases(rows int, rng *rand.Rand, specials bool) []complex128 {
	nz := math.Copysign(0, -1)
	special := []complex128{
		1, -1, 1i, -1i, complex(nz, 1), complex(1, nz), complex(-1, nz), complex(nz, -1),
		complex(5e-324, 1), complex(-1, -1e-310), complex(1e-310, -1),
	}
	nan := complex(math.NaN(), math.NaN())
	buf := make([]complex128, rows+2)
	buf[0], buf[rows+1] = nan, nan
	ph := buf[1 : rows+1 : rows+1]
	for a := range ph {
		if specials && rng.Intn(3) == 0 {
			ph[a] = special[rng.Intn(len(special))]
			continue
		}
		sin, cos := math.Sincos(2 * math.Pi * rng.Float64())
		ph[a] = complex(cos, sin)
	}
	return ph
}

func smallParams() window.Params {
	// Segments=4, DMu*S=28, chunks=8 per ... M = 224, N = 896.
	return window.Params{N: 896, Segments: 4, NMu: 8, DMu: 7, B: 24}
}

func TestVariantsMatchDense(t *testing.T) {
	f := design(t, smallParams())
	c0, c1 := 0, f.Chunks()
	x := ref.RandomVector(InputLen(f, c0, c1), 1)
	want := make([]complex128, OutputLen(f, c0, c1))
	ApplyDense(f, want, x, c0, c1)
	eachKernel(t, func(t *testing.T) {
		for _, v := range AllVariants {
			for _, workers := range []int{1, 3} {
				got := make([]complex128, OutputLen(f, c0, c1))
				Apply(v, f, got, x, c0, c1, workers)
				if e := cvec.RelErrL2(got, want); e > 1e-13 {
					t.Errorf("%v workers=%d: error vs dense %g", v, workers, e)
				}
			}
		}
	})
}

// TestBufferedManyRows runs a geometry whose lanes have more rows than the
// kernel's blocks of four and than the paper's widest lane (mu = 17/16): one
// dotRows call still computes, rotates and stores all of a window's rows.
func TestBufferedManyRows(t *testing.T) {
	f := design(t, window.Params{N: 16 * 4 * 4 * 5, Segments: 4, NMu: 17, DMu: 16, B: 21})
	c0, c1 := 1, f.Chunks()
	x := ref.RandomVector(InputLen(f, c0, c1), 5)
	want := make([]complex128, OutputLen(f, c0, c1))
	ApplyDense(f, want, x, c0, c1)
	eachKernel(t, func(t *testing.T) {
		got := make([]complex128, OutputLen(f, c0, c1))
		Apply(Buffered, f, got, x, c0, c1, 2)
		if e := cvec.RelErrL2(got, want); e > 1e-13 {
			t.Errorf("error vs dense %g", e)
		}
	})
}

// TestApplyTileMatchesApply pins ApplyTile's lane-major tile to Apply's
// row-major outputs bit for bit, for every variant, over the tile-edge
// geometries of soi.TestTiledPassMatchesStagedPipeline (T is TileChunks):
// every tile of the chunk range, the last one partial where T does not
// divide it, each at TileStride, and the padding rows past a tile's own are
// never written.
func TestApplyTileMatchesApply(t *testing.T) {
	geometries := []window.Params{
		{N: 4 * 56, Segments: 4, NMu: 8, DMu: 7, B: 24},    // 8 chunks < T = 64
		{N: 4 * 448, Segments: 4, NMu: 8, DMu: 7, B: 24},   // one full tile
		{N: 8 * 280, Segments: 8, NMu: 8, DMu: 7, B: 24},   // T = 32: tiles of 32 and 8
		{N: 64 * 128, Segments: 64, NMu: 3, DMu: 2, B: 24}, // T = 10: six of 10 and a 4
		{N: 2 * 28, Segments: 2, NMu: 8, DMu: 7, B: 16},
		{N: 3 * 12, Segments: 3, NMu: 3, DMu: 2, B: 8},
		{N: 2 * 14, Segments: 2, NMu: 8, DMu: 7, B: 24},
	}
	eachKernel(t, func(t *testing.T) {
		for _, p := range geometries {
			f := design(t, p)
			s, nmu, C := f.Segments, f.NMu, f.Chunks()
			tc, ldu := TileChunks(f), TileStride(f)
			x := ref.RandomVector(InputLen(f, 0, C), 43)
			stage := make([]complex128, StageLen(f))
			nan := complex(math.NaN(), math.NaN())
			for _, v := range AllVariants {
				want := make([]complex128, OutputLen(f, 0, C))
				Apply(v, f, want, x, 0, C, 1)
				for c := 0; c < C; c += tc {
					n := min(tc, C-c)
					u := make([]complex128, s*ldu)
					for i := range u {
						u[i] = nan
					}
					ApplyTile(v, f, u, ldu, x[c*f.DMu*s:], c, c+n, stage)
					for j := 0; j < s; j++ {
						for r := 0; r < ldu; r++ {
							got := u[j*ldu+r]
							if r >= n*nmu {
								if !cmplx.IsNaN(got) {
									t.Fatalf("%+v %v tile at chunk %d: padding row %d of lane %d written", p, v, c, r, j)
								}
								continue
							}
							w := want[(c*nmu+r)*s+j]
							if math.Float64bits(real(got)) != math.Float64bits(real(w)) ||
								math.Float64bits(imag(got)) != math.Float64bits(imag(w)) {
								t.Fatalf("%+v %v tile at chunk %d: lane %d row %d = %v, Apply %v", p, v, c, j, r, got, w)
							}
						}
					}
				}
			}
		}
	})
}

func TestChunkRangeDecomposition(t *testing.T) {
	// Computing [0,C) in one call must equal computing [0,k) and [k,C)
	// separately with correspondingly offset inputs — the property the
	// distributed version relies on (each rank owns a chunk range).
	f := design(t, smallParams())
	C := f.Chunks()
	x := ref.RandomVector(InputLen(f, 0, C), 2)
	whole := make([]complex128, OutputLen(f, 0, C))
	Apply(Buffered, f, whole, x, 0, C, 2)

	for _, k := range []int{1, 3, C / 2, C - 1} {
		lo := make([]complex128, OutputLen(f, 0, k))
		hi := make([]complex128, OutputLen(f, k, C))
		Apply(Buffered, f, lo, x, 0, k, 1)
		Apply(Buffered, f, hi, x[k*f.DMu*f.Segments:], k, C, 1)
		got := append(append([]complex128{}, lo...), hi...)
		if e := cvec.RelErrL2(got, whole); e != 0 {
			t.Errorf("split at %d: recombined range differs by %g", k, e)
		}
	}
}

// TestChunkRangeRaceHammer drives the chunk-range contract the way the
// distributed per-rank split does, under the race detector: two goroutines
// write adjacent chunk ranges of one output (disjoint element ranges of the
// same backing array) while a third computes the whole range, all reading
// one input, each with internal worker parallelism. The geometry has four
// tiles of 16 chunks, the unit the Buffered kernel splits across workers,
// and the worker counts run through 1, 3, S+1 and more than there are
// tiles. Every result must be bit-identical to a single-worker run of the
// same kernel; the real teeth come from -race.
func TestChunkRangeRaceHammer(t *testing.T) {
	f := design(t, window.Params{N: 16 * 448, Segments: 16, NMu: 8, DMu: 7, B: 24})
	C := f.Chunks()
	if tiles := C / TileChunks(f); tiles != 4 {
		t.Fatalf("geometry has %d tiles, the test wants 4", tiles)
	}
	x := ref.RandomVector(InputLen(f, 0, C), 99)

	iters := 32
	if testing.Short() {
		iters = 8
	}
	eachKernel(t, func(t *testing.T) {
		want := make([]complex128, OutputLen(f, 0, C))
		Apply(Buffered, f, want, x, 0, C, 1)
		k := C/2 + 3 // off the tile grid: both halves end in a partial tile
		loLen := OutputLen(f, 0, k)
		for it := 0; it < iters; it++ {
			workers := []int{1, 3, f.Segments + 1, 64}[it%4]
			shared := make([]complex128, OutputLen(f, 0, C))
			whole := make([]complex128, OutputLen(f, 0, C))
			var wg sync.WaitGroup
			wg.Add(3)
			go func() {
				defer wg.Done()
				Apply(Buffered, f, shared[:loLen], x, 0, k, workers)
			}()
			go func() {
				defer wg.Done()
				Apply(Buffered, f, shared[loLen:], x[k*f.DMu*f.Segments:], k, C, workers)
			}()
			go func() {
				defer wg.Done()
				Apply(Buffered, f, whole, x, 0, C, workers)
			}()
			wg.Wait()
			if e := cvec.RelErrL2(shared, want); e != 0 {
				t.Fatalf("iter %d workers=%d: split output differs from the single-worker run by %g", it, workers, e)
			}
			if e := cvec.RelErrL2(whole, want); e != 0 {
				t.Fatalf("iter %d workers=%d: whole-range output differs from the single-worker run by %g", it, workers, e)
			}
		}
	})
}

// propParams draws a random valid window geometry. The generator walks the
// constraint chain of window.Validate directly: pick the oversampling ratio
// and a segment count large enough for it, then build N from an integral
// chunk count, then a width B >= DMu.
func propParams(rng *rand.Rand) window.Params {
	ratios := [][2]int{{8, 7}, {5, 4}, {3, 2}, {9, 8}, {7, 5}}
	r := ratios[rng.Intn(len(ratios))]
	nmu, dmu := r[0], r[1]
	var segs int
	for {
		segs = 3 + rng.Intn(8)
		if segs*dmu > 2*nmu-dmu { // Segments > 2*mu - 1
			break
		}
	}
	chunks := 2 + rng.Intn(5)
	return window.Params{
		N:        dmu * segs * segs * chunks,
		Segments: segs,
		NMu:      nmu,
		DMu:      dmu,
		B:        dmu + rng.Intn(32),
	}
}

// TestBufferedMatchesDenseRandomized pins the real-tap kernel against the
// dense evaluation of W over randomized geometry: widths on both sides of
// every multiple of the kernel's group of four taps, chunk sub-ranges that
// start past zero, single chunks, and worker counts 1 and 3.
func TestBufferedMatchesDenseRandomized(t *testing.T) {
	iters := 40
	if testing.Short() {
		iters = 8
	}
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(20260928))
		var oddWidth, single, offset int
		for it := 0; it < iters; it++ {
			p := propParams(rng)
			f := design(t, p)
			C := f.Chunks()
			c0 := rng.Intn(C)
			c1 := c0 + 1 + rng.Intn(C-c0)
			if it%4 == 0 {
				c1 = c0 + 1
			}
			if p.B%4 != 0 {
				oddWidth++
			}
			if c1 == c0+1 {
				single++
			}
			if c0 > 0 {
				offset++
			}
			x := ref.RandomVector(InputLen(f, c0, c1), int64(it)+1)
			want := make([]complex128, OutputLen(f, c0, c1))
			ApplyDense(f, want, x, c0, c1)
			for _, workers := range []int{1, 3} {
				got := make([]complex128, OutputLen(f, c0, c1))
				Apply(Buffered, f, got, x, c0, c1, workers)
				if e := cvec.RelErrL2(got, want); e > 1e-13 {
					t.Errorf("iter %d %+v range [%d,%d) workers=%d: error vs dense %g", it, p, c0, c1, workers, e)
				}
			}
		}
		if oddWidth == 0 || single == 0 || offset == 0 {
			t.Errorf("generator missed a case: %d widths off the group of four, %d single chunks, %d ranges past zero",
				oddWidth, single, offset)
		}
	})
}

func TestInputOutputLen(t *testing.T) {
	f := design(t, smallParams())
	if got := InputLen(f, 0, 1); got != f.B*f.Segments {
		t.Errorf("InputLen one chunk = %d, want %d", got, f.B*f.Segments)
	}
	if got := InputLen(f, 0, f.Chunks()); got != f.N+f.GhostElems() {
		t.Errorf("InputLen all chunks = %d, want N+ghost = %d", got, f.N+f.GhostElems())
	}
	if got := OutputLen(f, 0, f.Chunks()); got != f.MPrime()*f.Segments {
		t.Errorf("OutputLen all = %d, want N' = %d", got, f.MPrime()*f.Segments)
	}
	if InputLen(f, 3, 3) != 0 || OutputLen(f, 3, 3) != 0 {
		t.Error("empty range should need/produce nothing")
	}
}

func TestApplyPanicsOnShortBuffers(t *testing.T) {
	f := design(t, smallParams())
	for _, fn := range []func(){
		func() { Apply(Baseline, f, make([]complex128, 1), make([]complex128, InputLen(f, 0, 2)), 0, 2, 1) },
		func() { Apply(Baseline, f, make([]complex128, OutputLen(f, 0, 2)), make([]complex128, 1), 0, 2, 1) },
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

func TestQuickVariantsAgree(t *testing.T) {
	// Random small parameter tuples: all variants must agree bit-for-bit
	// in structure (same sums up to fp reassociation).
	fn := func(segSel, bSel, muSel uint8, seed int64) bool {
		segs := []int{2, 4, 8}[int(segSel)%3]
		b := 3 + int(bSel)%10
		var nmu, dmu int
		switch muSel % 3 {
		case 0:
			nmu, dmu = 8, 7
		case 1:
			nmu, dmu = 5, 4
		default:
			nmu, dmu = 3, 2
		}
		chunks := 4
		m := dmu * segs * chunks
		p := window.Params{N: m * segs, Segments: segs, NMu: nmu, DMu: dmu, B: b}
		if p.Validate() != nil {
			return true // structurally invalid tuple (e.g. too few segments for mu)
		}
		f, err := window.Design(p)
		if err != nil {
			return false
		}
		x := ref.RandomVector(InputLen(f, 0, f.Chunks()), seed)
		outs := make([][]complex128, len(AllVariants))
		for i, v := range AllVariants {
			outs[i] = make([]complex128, OutputLen(f, 0, f.Chunks()))
			Apply(v, f, outs[i], x, 0, f.Chunks(), 2)
		}
		return cvec.RelErrL2(outs[1], outs[0]) < 1e-13 && cvec.RelErrL2(outs[2], outs[0]) < 1e-13
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
