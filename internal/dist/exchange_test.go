package dist

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/cmplx"
	"net"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"

	"soifft/internal/conv"
	"soifft/internal/cpu"
	"soifft/internal/cvec"
	"soifft/internal/fft"
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

// forwardPins are the recorded outputs of the sequential plan on
// ref.RandomVector(N, 1234) at testParams(8, chunksPerSeg): one parameter set
// leaves interior chunks on every world size, the other has none on four
// ranks and a ghost region spanning several successors. Each pin has two
// modes (checkForwardPin). The bit mode holds the output's hash to the one
// recorded for the convolution kernel the host runs: portable, on an amd64
// processor without AVX2 and FMA; fma, where the fused multiply-add kernels
// run (the 256- and 512-bit ones round alike). Off amd64 the compiler may
// fuse dotReal's products, so no hash is pinned. The tolerance mode holds the
// output within the rounding model of a stored reference and within the
// designed bound of the exact DFT, on every host. Both hashes were recorded
// again when factorize dropped its aliasing rule and cache-sized segments
// moved to the plain Stockham plan, after the tolerance mode had accepted the
// new outputs (CHANGES.md lists the old values).
var forwardPins = []struct {
	chunksPerSeg  int
	portable, fma uint64
}{
	{2, 0x409f21727459e17b, 0xa3fe59c4bc18bb32},
	{16, 0x0dcd7575b4e627c1, 0x7cc1205c44c22593},
}

// forwardRefSamples is how many outputs of each pin testdata/
// forward_reference.bin stores: y[k*N/forwardRefSamples] for every k, as
// little-endian float64 (re, im) pairs, pin after pin. They are the fma
// kernel's outputs at commit 93ee46f, whose stage 4 ran the six-step with the
// aliasing radix schedule.
const forwardRefSamples = 896

// forwardModel is the error model of one evaluation of pl's output: its
// relative L2 rounding error against the exact SOI operator. The
// convolution's dot products of B taps and a phase contribute DotBound(B+2)
// times the prototype's tap mass over the passband floor (the norms of |W|
// and of W^-1 at the output), the Segments- and M'-point FFTs their FFTBound
// scaled by the demodulation's spread PassbandMax/PassbandMin, and the
// demodulating multiply three roundoffs.
func forwardModel(win *window.Filter) float64 {
	mass := 0.0
	for _, taps := range win.Taps {
		m := 0.0
		for _, h := range taps {
			m += cmplx.Abs(h)
		}
		mass = max(mass, m)
	}
	spread := win.PassbandMax / win.PassbandMin
	return ref.DotBound(win.B+2)*mass/win.PassbandMin +
		spread*(ref.FFTBound(win.Segments)+ref.FFTBound(win.MPrime())) + 3*ref.Roundoff
}

// forwardReference returns pin i's stored reference samples.
func forwardReference(t *testing.T, i int) []complex128 {
	t.Helper()
	b, err := os.ReadFile("testdata/forward_reference.bin")
	if err != nil {
		t.Fatal(err)
	}
	const size = 16 * forwardRefSamples
	if len(b) != size*len(forwardPins) {
		t.Fatalf("forward_reference.bin holds %d bytes, want %d", len(b), size*len(forwardPins))
	}
	out := make([]complex128, forwardRefSamples)
	cvec.Decode(out, b[i*size:(i+1)*size])
	return out
}

// checkForwardPin reports whether y, an output of pin i's input under a plan
// with window win, passes each mode. bit is false, too, where no hash is
// pinned. tol holds the sampled outputs within twice forwardModel (the
// reference is an evaluation too) of the stored reference, and within
// EstimatedError of ref.DFT at the same bins; detail says by how much.
func checkForwardPin(t *testing.T, i int, win *window.Filter, x, y []complex128) (bit, tol bool, detail string) {
	t.Helper()
	pin := forwardPins[i]
	want, kernel := pin.portable, "portable"
	if cpu.AVX2 && cpu.FMA {
		want, kernel = pin.fma, "fma"
	}
	h := hashBits(y)
	bit = runtime.GOARCH == "amd64" && h == want
	stride := len(y) / forwardRefSamples
	bins := make([]int, forwardRefSamples)
	got := make([]complex128, forwardRefSamples)
	for k := range bins {
		bins[k] = k * stride
		got[k] = y[k*stride]
	}
	model := 2 * forwardModel(win)
	dRef := cvec.RelErrL2(got, forwardReference(t, i))
	dDFT := cvec.RelErrL2(got, ref.DFTAt(x, bins))
	tol = dRef <= model && dDFT <= win.AliasBound()
	detail = fmt.Sprintf("hash %#x (%s kernel recorded %#x); %.3g from the reference (model %.3g), %.3g from ref.DFT (EstimatedError %.3g)",
		h, kernel, want, dRef, model, dDFT, win.AliasBound())
	return bit, tol, detail
}

// TestForwardBitIdenticalToParent: the exchange path decides where bytes
// live, never what they are. On every world size, in process and over a
// loopback TCP mesh (where receives are read from the socket straight into
// the segment vectors), the distributed output is bit-for-bit the
// single-address-space plan's (as it was before the working set, the
// transpose pack, receive-in-place and the own lanes stored straight into
// the segment vectors), and the plan's output passes both modes of its pin
// (forwardPins).
func TestForwardBitIdenticalToParent(t *testing.T) {
	for i, pin := range forwardPins {
		p := testParams(8, pin.chunksPerSeg)
		x := ref.RandomVector(p.N, 1234)
		seq, err := soi.NewPlan(p, soi.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want := make([]complex128, p.N)
		if err := seq.Forward(want, x); err != nil {
			t.Fatal(err)
		}
		bit, tol, detail := checkForwardPin(t, i, seq.Win, x, want)
		t.Logf("N=%d: %s", p.N, detail)
		if !bit && runtime.GOARCH == "amd64" {
			t.Errorf("N=%d: sequential plan fails the bit mode: %s", p.N, detail)
		}
		if !tol {
			t.Errorf("N=%d: sequential plan fails the tolerance mode: %s", p.N, detail)
		}
		for _, leg := range []struct {
			transport string
			world     int
		}{{"inproc", 1}, {"inproc", 2}, {"inproc", 4}, {"tcp", 2}, {"tcp", 4}} {
			world := leg.world
			got := make([]complex128, p.N)
			localN := p.N / world
			forward := func(c mpi.Comm) error {
				d, err := NewSOIFromPlan(c, seq)
				if err != nil {
					return err
				}
				r := c.Rank()
				return d.Forward(got[r*localN:(r+1)*localN], x[r*localN:(r+1)*localN])
			}
			var err error
			if leg.transport == "tcp" {
				nodes := tcpMesh(t, world)
				err = eachRank(world, func(r int) error { return forward(nodes[r]) })
			} else {
				err = mpi.Run(world, forward)
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
					t.Errorf("N=%d %s world=%d: output[%d] = %v, sequential plan %v",
						p.N, leg.transport, world, i, got[i], want[i])
					break
				}
			}
		}
	}
}

// TestForwardPinModes shows what each mode of the forward pins tells apart.
// Two twins that only reorder sums pass the tolerance mode and fail the bit
// mode: the Baseline convolution (complex taps, summed in tap order) and the
// naive six-step for stage 4. A seeded one-tap coefficient error — the
// largest lane tap the production kernel reads scaled by 1+1e-9, a change
// far inside EstimatedError — fails both.
func TestForwardPinModes(t *testing.T) {
	for i, pin := range forwardPins {
		p := testParams(8, pin.chunksPerSeg)
		x := ref.RandomVector(p.N, 1234)
		win, err := window.Design(p)
		if err != nil {
			t.Fatal(err)
		}
		seeded := *win
		seeded.LaneTaps = slices.Clone(win.LaneTaps)
		seeded.LaneTapsDup = slices.Clone(win.LaneTapsDup)
		k := 0
		for j, v := range win.LaneTaps {
			if math.Abs(v) > math.Abs(win.LaneTaps[k]) {
				k = j
			}
		}
		seeded.LaneTaps[k] *= 1 + 1e-9
		seeded.LaneTapsDup[2*k], seeded.LaneTapsDup[2*k+1] = seeded.LaneTaps[k], seeded.LaneTaps[k]
		for _, tc := range []struct {
			name     string
			win      *window.Filter
			opts     soi.Options
			bit, tol bool
		}{
			{"baseline convolution", win, soi.Options{ConvVariant: conv.Baseline}, false, true},
			{"naive six-step", win, soi.Options{FFTVariant: fft.SixStepNaive}, false, true},
			{"one-tap error", &seeded, soi.DefaultOptions(), false, false},
		} {
			pl, err := soi.NewPlanFromFilter(tc.win, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			y := make([]complex128, p.N)
			if err := pl.Forward(y, x); err != nil {
				t.Fatal(err)
			}
			bit, tol, detail := checkForwardPin(t, i, win, x, y)
			t.Logf("N=%d %s: %s", p.N, tc.name, detail)
			if runtime.GOARCH == "amd64" && bit != tc.bit {
				t.Errorf("N=%d %s: bit mode passes %v, want %v", p.N, tc.name, bit, tc.bit)
			}
			if tol != tc.tol {
				t.Errorf("N=%d %s: tolerance mode passes %v, want %v", p.N, tc.name, tol, tc.tol)
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
	tol := plan.EstimatedError()
	for _, transport := range []string{"inproc", "tcp"} {
		worst := make([]float64, world) // per rank: measured error over tol
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
				e := cvec.RelErrL2(dst, wants[i][r*localN:(r+1)*localN])
				worst[r] = max(worst[r], e/tol)
				if e > tol {
					return fmt.Errorf("rank %d round %d: relative error %g > EstimatedError %g", r, i, e, tol)
				}
			}
			return nil
		})
		if err != nil {
			t.Errorf("%s: %v", transport, err)
		}
		t.Logf("%s: worst measured/EstimatedError %.3f", transport, slices.Max(worst))
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
