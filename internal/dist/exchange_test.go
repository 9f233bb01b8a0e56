package dist

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"

	"soifft/internal/cpu"
	"soifft/internal/cvec"
	"soifft/internal/mpi"
	"soifft/internal/ref"
	"soifft/internal/soi"
	"soifft/internal/window"
)

// tcpMesh forms a loopback TCP mesh and returns its nodes, closed when the
// test ends.
func tcpMesh(tb testing.TB, world int) []*mpi.TCPNode {
	tb.Helper()
	lns := make([]net.Listener, world)
	addrs := make([]string, world)
	for r := range lns {
		ln, err := mpi.ListenTCP("127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		lns[r], addrs[r] = ln, ln.Addr().String()
	}
	nodes := make([]*mpi.TCPNode, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nodes[r], errs[r] = mpi.ConnectTCP(r, world, lns[r], addrs)
		}()
	}
	wg.Wait()
	tb.Cleanup(func() {
		for _, n := range nodes {
			if n != nil {
				n.Close()
			}
		}
	})
	if err := errors.Join(errs...); err != nil {
		tb.Fatal(err)
	}
	return nodes
}

// eachRank runs fn once per rank, concurrently, and returns the joined
// errors.
func eachRank(world int, fn func(r int) error) error {
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = fn(r)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// benchParams are the repository benchmark's SOI parameters (soiperf's
// dist_tcp_458k) at N = 7*2^logN.
func benchParams(logN int) window.Params {
	return window.Params{N: 7 << logN, Segments: 8, NMu: 8, DMu: 7, B: 72}
}

// hashBits folds the exact bit patterns of v into one number.
func hashBits(v []complex128) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, c := range v {
		re, im := math.Float64bits(real(c)), math.Float64bits(imag(c))
		for i := 0; i < 8; i++ {
			b[i] = byte(re >> (8 * i))
			b[8+i] = byte(im >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestForwardBitIdenticalToParent: the exchange path decides where bytes
// live, never what they are. On every world size, pipelined or not, the
// distributed output is bit-for-bit the single-address-space plan's (as it
// was before the working set, the transpose pack and receive-in-place), and
// on amd64 its hash is the one recorded for the same seed with the
// convolution kernel the host runs: parent, recorded before the fused
// multiply-add kernel, on the portable path of a processor without AVX2 and
// FMA; fma, recorded when that kernel came, where it runs. Both kernels are
// within the dot product's rounding bound (conv.TestDotRowsRoundingBound);
// they differ in rounding only. Off amd64 the compiler may fuse dotReal's
// products, so no hash is pinned. One parameter set leaves interior chunks
// on every world size, the other has none on four ranks and a ghost region
// spanning several successors.
func TestForwardBitIdenticalToParent(t *testing.T) {
	for _, tc := range []struct {
		chunksPerSeg int
		parent, fma  uint64
	}{
		{2, 0xa3e54db7575ce7f6, 0x72188aac20ef5325},
		{16, 0x43b22cacc7a42788, 0x99bb4c51417b7b23},
	} {
		p := testParams(8, tc.chunksPerSeg)
		x := ref.RandomVector(p.N, 1234)
		seq, err := soi.NewPlan(p, soi.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want := make([]complex128, p.N)
		if err := seq.Forward(want, x); err != nil {
			t.Fatal(err)
		}
		pinned, kernel := tc.parent, "parent"
		if cpu.AVX2 && cpu.FMA {
			pinned, kernel = tc.fma, "fma"
		}
		if h := hashBits(want); runtime.GOARCH == "amd64" && h != pinned {
			t.Errorf("N=%d: sequential plan hashes to %#x, recorded (%s kernel) %#x", p.N, h, kernel, pinned)
		}
		for _, world := range []int{1, 2, 4} {
			for _, noOverlap := range []bool{false, true} {
				got := make([]complex128, p.N)
				localN := p.N / world
				err := mpi.Run(world, func(c mpi.Comm) error {
					d, err := NewSOIFromPlan(c, seq)
					if err != nil {
						return err
					}
					d.NoOverlap = noOverlap
					r := c.Rank()
					return d.Forward(got[r*localN:(r+1)*localN], x[r*localN:(r+1)*localN])
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
						math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
						t.Errorf("N=%d world=%d noOverlap=%v: output[%d] = %v, sequential plan %v",
							p.N, world, noOverlap, i, got[i], want[i])
						break
					}
				}
			}
		}
	}
}

// TestReuseHammer drives one dist.SOI per rank through alternating Forward
// and Inverse calls, four rank goroutines sharing one plan and the process-
// wide payload pools, so that every buffer of the working set is reused
// many times with different contents. Every result must be within the
// designed bound; run under -race.
func TestReuseHammer(t *testing.T) {
	const world, rounds = 4, 8
	p := testParams(8, 4)
	plan, err := soi.NewPlan(p, soi.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	localN := p.N / world
	xs := make([][]complex128, rounds)
	wants := make([][]complex128, rounds)
	for i := range xs {
		xs[i] = ref.RandomVector(p.N, int64(500+i))
		if i%2 == 0 {
			wants[i] = fftRef(xs[i])
		} else {
			wants[i] = ref.IDFT(xs[i])
		}
	}
	tol := 10 * plan.EstimatedError()
	for _, transport := range []string{"inproc", "tcp"} {
		comms := make([]mpi.Comm, world)
		if transport == "tcp" {
			for r, n := range tcpMesh(t, world) {
				comms[r] = n
			}
		} else {
			w, err := mpi.NewWorld(world)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			for r := range comms {
				comms[r] = w.Comm(r)
			}
		}
		err := eachRank(world, func(r int) error {
			d, err := NewSOIFromPlan(comms[r], plan)
			if err != nil {
				return err
			}
			dst := make([]complex128, localN)
			for i := 0; i < rounds; i++ {
				src := xs[i][r*localN : (r+1)*localN]
				if i%2 == 0 {
					err = d.Forward(dst, src)
				} else {
					err = d.Inverse(dst, src)
				}
				if err != nil {
					return fmt.Errorf("rank %d round %d: %w", r, i, err)
				}
				if e := cvec.RelErrL2(dst, wants[i][r*localN:(r+1)*localN]); e > tol {
					return fmt.Errorf("rank %d round %d: relative error %g > %g", r, i, e, tol)
				}
			}
			return nil
		})
		if err != nil {
			t.Errorf("%s: %v", transport, err)
		}
	}
}

// BenchmarkForwardTCP is soiperf's dist_tcp_458k operation: one Forward on
// each of two single-worker ranks over a loopback TCP mesh. B/op is the
// whole mesh's allocation per operation.
func BenchmarkForwardTCP(b *testing.B) {
	const world = 2
	p := benchParams(16)
	opts := soi.DefaultOptions()
	opts.Workers = 1
	plan, err := soi.NewPlan(p, opts)
	if err != nil {
		b.Fatal(err)
	}
	nodes := tcpMesh(b, world)
	localN := p.N / world
	x := ref.RandomVector(p.N, 1)
	out := make([]complex128, p.N)
	plans := make([]*SOI, world)
	for r := range plans {
		if plans[r], err = NewSOIFromPlan(nodes[r], plan); err != nil {
			b.Fatal(err)
		}
	}
	op := func() error {
		return eachRank(world, func(r int) error {
			return plans[r].Forward(out[r*localN:(r+1)*localN], x[r*localN:(r+1)*localN])
		})
	}
	if err := op(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(16 * p.N))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}
