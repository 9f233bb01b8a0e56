package dist

import (
	"fmt"
	"sync"
	"testing"

	"soifft/internal/cvec"
	"soifft/internal/fft"
	"soifft/internal/mpi"
	"soifft/internal/ref"
	"soifft/internal/soi"
	"soifft/internal/trace"
	"soifft/internal/window"
)

// testParams builds an SOI parameter set with the given total segments,
// sized so every constraint (chunks per rank, M' per rank) divides evenly
// for world sizes up to segments.
func testParams(segments, chunksPerSeg int) window.Params {
	m := 7 * segments * chunksPerSeg * segments / segments // M = 7*S*chunks... keep simple
	m = 7 * segments * chunksPerSeg
	return window.Params{N: m * segments, Segments: segments, NMu: 8, DMu: 7, B: 72}
}

// runDistSOI executes the distributed SOI over an in-process world and
// returns the gathered full output.
func runDistSOI(t *testing.T, world int, p window.Params, opts soi.Options, x []complex128) []complex128 {
	t.Helper()
	out := make([]complex128, p.N)
	localN := p.N / world
	var mu sync.Mutex
	err := mpi.Run(world, func(c mpi.Comm) error {
		d, err := NewSOI(c, p, opts)
		if err != nil {
			return err
		}
		d.Breakdown = trace.NewBreakdown()
		r := c.Rank()
		dst := make([]complex128, localN)
		if err := d.Forward(dst, x[r*localN:(r+1)*localN]); err != nil {
			return err
		}
		if d.Breakdown.Total() <= 0 {
			return fmt.Errorf("rank %d: breakdown recorded no time", r)
		}
		mu.Lock()
		copy(out[r*localN:], dst)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func fftRef(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	fft.MustPlan(len(x)).Forward(out, x)
	return out
}

func TestDistSOIMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		world, segments, chunks int
	}{
		{1, 4, 4},
		{2, 4, 4},
		{4, 4, 4},
		{4, 8, 2}, // 2 segments per rank -> pipelined exchanges
		{2, 8, 2}, // 4 segments per rank
		{8, 8, 2},
	} {
		p := testParams(tc.segments, tc.chunks)
		x := ref.RandomVector(p.N, int64(tc.world*100+tc.segments))
		want := fftRef(x)
		got := runDistSOI(t, tc.world, p, soi.DefaultOptions(), x)
		if e := cvec.RelErrL2(got, want); e > 1e-6 {
			t.Errorf("world=%d segments=%d: error %g", tc.world, tc.segments, e)
		}
	}
}

// TestDistFinishWorkersAgree: a rank finishes as many segments at once as
// the plan's SegmentWorkers (one per worker on the plain engine, up to the
// rank's segment count), and the count changes no bit of the output.
func TestDistFinishWorkersAgree(t *testing.T) {
	const world = 2
	p := testParams(8, 2) // 4 segments per rank
	x := ref.RandomVector(p.N, 6)
	var want []complex128
	for _, workers := range []int{1, 3, 8} {
		opts := soi.DefaultOptions()
		opts.Workers = workers
		plan, err := soi.NewPlan(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		w, err := mpi.NewWorld(world)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewSOIFromPlan(w.Comm(0), plan)
		w.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cap(d.ws.New().free), min(workers, p.Segments/world); got != want {
			t.Errorf("workers=%d: %d segments finish at once, want %d", workers, got, want)
		}
		got := runDistSOI(t, world, p, opts, x)
		if want == nil {
			want = got
			continue
		}
		if e := cvec.RelErrL2(got, want); e != 0 {
			t.Errorf("workers=%d: output differs from one worker by %g", workers, e)
		}
	}
}

func TestDistSOIMatchesSequentialSOI(t *testing.T) {
	// The distributed pipeline must agree with the single-address-space
	// plan bit-for-bit in structure (same kernels, same order per segment).
	p := testParams(4, 4)
	x := ref.RandomVector(p.N, 9)
	seq, err := soi.NewPlan(p, soi.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, p.N)
	if err := seq.Forward(want, x); err != nil {
		t.Fatal(err)
	}
	got := runDistSOI(t, 4, p, soi.DefaultOptions(), x)
	if e := cvec.RelErrL2(got, want); e > 1e-12 {
		t.Errorf("distributed vs sequential SOI: %g", e)
	}
}

func TestDistSOIGhostSpanningMultipleRanks(t *testing.T) {
	// Small per-rank blocks force the ghost region (B-DMu)*S to span
	// several successors: ghost = 65*4 = 260 > N/4 = 84.
	p := testParams(4, 3)
	if p.GhostElems() <= p.N/4 {
		t.Skip("parameters do not exercise multi-rank ghost")
	}
	x := ref.RandomVector(p.N, 21)
	got := runDistSOI(t, 4, p, soi.DefaultOptions(), x)
	if e := cvec.RelErrL2(got, fftRef(x)); e > 1e-6 {
		t.Errorf("multi-rank ghost: error %g", e)
	}
}

func TestNewSOIValidation(t *testing.T) {
	p := testParams(4, 4)
	err := mpi.Run(3, func(c mpi.Comm) error {
		if _, err := NewSOI(c, p, soi.DefaultOptions()); err == nil {
			return fmt.Errorf("segments=4 world=3 accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistCTMatchesSerial(t *testing.T) {
	for _, tc := range []struct{ world, n int }{
		{1, 64}, {2, 64}, {4, 256}, {4, 448}, {8, 1024}, {4, 2048},
	} {
		x := ref.RandomVector(tc.n, int64(tc.n))
		want := fftRef(x)
		out := make([]complex128, tc.n)
		localN := tc.n / tc.world
		var mu sync.Mutex
		err := mpi.Run(tc.world, func(c mpi.Comm) error {
			ct, err := NewCT(c, tc.n, 2)
			if err != nil {
				return err
			}
			ct.Breakdown = trace.NewBreakdown()
			r := c.Rank()
			dst := make([]complex128, localN)
			if err := ct.Forward(dst, x[r*localN:(r+1)*localN]); err != nil {
				return err
			}
			mu.Lock()
			copy(out[r*localN:], dst)
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if e := cvec.RelErrL2(out, want); e > 1e-11 {
			t.Errorf("world=%d n=%d: CT error %g", tc.world, tc.n, e)
		}
	}
}

func TestNewCTValidation(t *testing.T) {
	err := mpi.Run(4, func(c mpi.Comm) error {
		if _, err := NewCT(c, 100, 1); err == nil { // 100/4=25, 25%4 != 0
			return fmt.Errorf("invalid CT size accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistSOIOverTCP(t *testing.T) {
	// The same SPMD program over real TCP loopback connections.
	const world = 4
	p := testParams(4, 4)
	x := ref.RandomVector(p.N, 31)
	want := fftRef(x)
	localN := p.N / world

	nodes := tcpMesh(t, world)
	out := make([]complex128, p.N)
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, world)
	wg.Add(world)
	for r := 0; r < world; r++ {
		go func(r int) {
			defer wg.Done()
			node := nodes[r]
			d, err := NewSOI(node, p, soi.DefaultOptions())
			if err != nil {
				errs <- err
				return
			}
			dst := make([]complex128, localN)
			if err := d.Forward(dst, x[r*localN:(r+1)*localN]); err != nil {
				errs <- err
				return
			}
			mu.Lock()
			copy(out[r*localN:], dst)
			mu.Unlock()
			errs <- nil
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if e := cvec.RelErrL2(out, want); e > 1e-6 {
		t.Errorf("TCP distributed SOI error %g", e)
	}
}

func TestDistSOIInverse(t *testing.T) {
	// Distributed forward + distributed inverse round trip.
	const world = 4
	p := testParams(4, 4)
	x := ref.RandomVector(p.N, 88)
	localN := p.N / world
	fwd := make([]complex128, p.N)
	back := make([]complex128, p.N)
	run := func(out, in []complex128, inverse bool) {
		var mu sync.Mutex
		err := mpi.Run(world, func(c mpi.Comm) error {
			d, err := NewSOI(c, p, soi.DefaultOptions())
			if err != nil {
				return err
			}
			r := c.Rank()
			dst := make([]complex128, localN)
			if inverse {
				err = d.Inverse(dst, in[r*localN:(r+1)*localN])
			} else {
				err = d.Forward(dst, in[r*localN:(r+1)*localN])
			}
			if err != nil {
				return err
			}
			mu.Lock()
			copy(out[r*localN:], dst)
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	run(fwd, x, false)
	run(back, fwd, true)
	if e := cvec.RelErrL2(back, x); e > 1e-6 {
		t.Errorf("distributed round trip error %g", e)
	}
	// The distributed inverse also matches the reference IDFT of fwd.
	if e := cvec.RelErrL2(back, ref.IDFT(fwd)); e > 1e-5 {
		t.Errorf("distributed inverse vs reference IDFT: %g", e)
	}
}

// TestWorksetHoldsRemoteLanesOnly: a rank's own lanes are stored straight
// into its slots of its segment vectors, so ut holds only the
// (S − S/P)·M'/P elements of the lanes other ranks own, and every own
// lane's destination is the very memory its all-to-all slot receives into,
// so AllToAllInto copies nothing for it.
func TestWorksetHoldsRemoteLanesOnly(t *testing.T) {
	p := testParams(8, 4)
	plan, err := soi.NewPlan(p, soi.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, world := range []int{1, 2, 4, 8} {
		w, err := mpi.NewWorld(world)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		for r := range world {
			d, err := NewSOIFromPlan(w.Comm(r), plan)
			if err != nil {
				t.Fatal(err)
			}
			ws := d.newWorkset()
			own := p.Segments / world
			if want := (p.Segments - own) * p.MPrime() / world; len(ws.ut) != want {
				t.Errorf("world %d rank %d: ut holds %d elements, want (S - S/P)·M'/P = %d", world, r, len(ws.ut), want)
			}
			for g := range own {
				send, recv := ws.send[g][r], ws.recv[g][r]
				if len(send) == 0 || &send[0] != &recv[0] || len(send) != len(recv) {
					t.Errorf("world %d rank %d: own block of exchange %d is not its receive slot", world, r, g)
				}
			}
		}
	}
}
