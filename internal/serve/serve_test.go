package serve

import (
	"context"
	"errors"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"soifft"
	"soifft/client"
	"soifft/internal/cvec"
	"soifft/internal/fft"
	"soifft/internal/ref"
	"soifft/internal/wire"
)

// startServer runs a Server on a loopback listener and tears it down with
// the test.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveOn(t, cfg, ln), ln.Addr().String()
}

// serveOn runs a Server on ln and tears it down with the test.
func serveOn(t *testing.T, cfg Config, ln net.Listener) *Server {
	srv := New(cfg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv
}

func dialClient(t *testing.T, addr string) *client.Client {
	t.Helper()
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestServeExactRoundTrip checks served Forward/Inverse against the O(N^2)
// reference DFT for a smooth length and a rough (Bluestein) length.
func TestServeExactRoundTrip(t *testing.T) {
	_, addr := startServer(t, Config{})
	cl := dialClient(t, addr)
	cl.SetAlg(client.Exact)
	ctx := context.Background()

	for _, n := range []int{128, 146} { // 146 = 2*73 exercises Bluestein
		x := ref.RandomVector(n, int64(n))
		dst := make([]complex128, n)
		if err := cl.Forward(ctx, dst, x); err != nil {
			t.Fatalf("Forward n=%d: %v", n, err)
		}
		if e := cvec.RelErrL2(dst, ref.DFT(x)); e > 1e-9 {
			t.Errorf("Forward n=%d: rel err %g > 1e-9", n, e)
		}
		inv := make([]complex128, n)
		if err := cl.Inverse(ctx, inv, dst); err != nil {
			t.Fatalf("Inverse n=%d: %v", n, err)
		}
		if e := cvec.RelErrL2(inv, x); e > 1e-9 {
			t.Errorf("Inverse(Forward) n=%d: rel err %g > 1e-9", n, e)
		}
	}
}

// TestServeSOI checks the served SOI path against the reference DFT at the
// plan's own designed error bound.
func TestServeSOI(t *testing.T) {
	soiCfg := soifft.Config{Segments: 2, ConvWidth: 48}
	srv, addr := startServer(t, Config{SOI: soiCfg, Workers: 1})
	cl := dialClient(t, addr)
	cl.SetAlg(client.SOI)
	ctx := context.Background()

	const n = 896
	local, err := soifft.NewPlan(n, soiCfg)
	if err != nil {
		t.Fatal(err)
	}
	tol := 10 * local.EstimatedError()

	x := ref.RandomVector(n, 7)
	dst := make([]complex128, n)
	if err := cl.Forward(ctx, dst, x); err != nil {
		t.Fatalf("SOI Forward: %v", err)
	}
	if e := cvec.RelErrL2(dst, ref.DFT(x)); e > tol {
		t.Errorf("SOI Forward: rel err %g > tol %g", e, tol)
	}
	inv := make([]complex128, n)
	if err := cl.Inverse(ctx, inv, dst); err != nil {
		t.Fatalf("SOI Inverse: %v", err)
	}
	if e := cvec.RelErrL2(inv, x); e > tol {
		t.Errorf("SOI Inverse(Forward): rel err %g > tol %g", e, tol)
	}

	// SOI-invalid length -> typed bad-request error, connection stays usable.
	if err := cl.Forward(ctx, make([]complex128, 100), make([]complex128, 100)); !errors.Is(err, wire.ErrBadRequest) {
		t.Errorf("SOI n=100: got %v, want ErrBadRequest", err)
	}
	if err := cl.Forward(ctx, dst, x); err != nil {
		t.Errorf("connection unusable after bad request: %v", err)
	}
	if st := srv.Snapshot(); st.PlanCache.Designs != 1 {
		t.Errorf("plan designs %d, want 1 (both directions share one plan)", st.PlanCache.Designs)
	}
}

// TestServeBatchFrame sends count transforms in one TBatch frame — batches
// of 128, 256 and 8192 elements — and checks each transform, forward and
// inverse, bit for bit against fft.Plan (the server runs the same plan on
// each transform) and forward against the reference DFT.
func TestServeBatchFrame(t *testing.T) {
	_, addr := startServer(t, Config{})
	cl := dialClient(t, addr)
	cl.SetAlg(client.Exact)

	for _, tc := range []struct{ n, count int }{{64, 2}, {64, 4}, {1024, 8}} {
		n, count := tc.n, tc.count
		plan := fft.MustPlan(n)
		src := make([]complex128, n*count)
		for i := 0; i < count; i++ {
			copy(src[i*n:], ref.RandomVector(n, int64(i+1)))
		}
		dst := make([]complex128, n*count)
		want := make([]complex128, n)
		for _, inverse := range []bool{false, true} {
			if err := cl.Batch(context.Background(), dst, src, count, inverse); err != nil {
				t.Fatalf("Batch %dx%d inverse=%v: %v", n, count, inverse, err)
			}
			dir := fft.Forward
			if inverse {
				dir = fft.Inverse
			}
			for i := 0; i < count; i++ {
				x, got := src[i*n:(i+1)*n], dst[i*n:(i+1)*n]
				plan.Transform(want, x, dir)
				if j := firstBitDiff(got, want); j >= 0 {
					t.Errorf("batch %dx%d inverse=%v transform %d: bin %d is %v, fft.Plan gives %v", n, count, inverse, i, j, got[j], want[j])
				}
				if !inverse {
					if e := cvec.RelErrL2(got, ref.DFT(x)); e > 1e-9 {
						t.Errorf("batch %dx%d transform %d: rel err %g vs reference DFT", n, count, i, e)
					}
				}
			}
		}
	}
}

// TestServeExactAnswersArePlanBits: pipelined callers on two connections
// send n = 64 and n = 1024 transforms, forward and inverse, as single
// frames (which the scheduler coalesces into batches up to MaxBatch wide)
// and as TBatch frames. Every answer must be the bits fft.Plan gives for
// that transform, whatever batch it ran in, and the buffer pool must hold
// only request-sized buffers: nothing is staged per batch.
func TestServeExactAnswersArePlanBits(t *testing.T) {
	srv, addr := startServer(t, Config{Workers: 1, MaxBatch: 32})
	const conns, callers, rounds = 2, 16, 4
	sizes := []int{64, 1024}
	counts := []int{1, 4}
	plans := map[int]*fft.Plan{}
	for _, n := range sizes {
		plans[n] = fft.MustPlan(n)
	}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		cl := dialClient(t, addr)
		cl.SetAlg(client.Exact)
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				ctx := context.Background()
				for r := 0; r < rounds; r++ {
					for _, n := range sizes {
						for _, count := range counts {
							for _, inverse := range []bool{false, true} {
								src := ref.RandomVector(n*count, seed)
								seed++
								got := make([]complex128, n*count)
								// count 1 goes out as a TForward or TInverse frame.
								if err := cl.Batch(ctx, got, src, count, inverse); err != nil {
									t.Errorf("n=%d count=%d inverse=%v: %v", n, count, inverse, err)
									return
								}
								dir := fft.Forward
								if inverse {
									dir = fft.Inverse
								}
								want := make([]complex128, n)
								for i := 0; i < count; i++ {
									plans[n].Transform(want, src[i*n:(i+1)*n], dir)
									if j := firstBitDiff(got[i*n:(i+1)*n], want); j >= 0 {
										t.Errorf("n=%d count=%d inverse=%v transform %d: bin %d is %v, fft.Plan gives %v",
											n, count, inverse, i, j, got[i*n+j], want[j])
										return
									}
								}
							}
						}
					}
				}
			}(int64(1000 * (c*callers + g + 1)))
		}
	}
	wg.Wait()

	if st := srv.Snapshot(); st.MaxBatch < 2 {
		t.Errorf("max executed batch %d: the pipelined callers never coalesced", st.MaxBatch)
	}
	requestSized := map[int]bool{}
	for _, n := range sizes {
		for _, count := range counts {
			requestSized[n*count] = true
		}
	}
	srv.bufs.mu.Lock()
	defer srv.bufs.mu.Unlock()
	for elems := range srv.bufs.pools {
		if !requestSized[elems] {
			t.Errorf("buffer pool holds %d-element buffers, which no request is", elems)
		}
	}
}

// firstBitDiff returns the first index at which a and b differ in any bit,
// or -1.
func firstBitDiff(a, b []complex128) int {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return i
		}
	}
	return -1
}

// rawRequest writes one transform frame directly (bypassing the client
// library, which derives deadlines from contexts) and returns the response
// header for reqID.
func rawRequest(t *testing.T, conn net.Conn, h wire.Header, payload []complex128) {
	t.Helper()
	if err := wire.WriteHeader(conn, &h); err != nil {
		t.Fatal(err)
	}
	if payload != nil {
		if err := wire.WriteVector(conn, payload); err != nil {
			t.Fatal(err)
		}
	}
}

func readResponse(t *testing.T, conn net.Conn) (wire.Header, string) {
	t.Helper()
	h, err := wire.ReadHeader(conn)
	if err != nil {
		t.Fatal(err)
	}
	switch h.Type {
	case wire.TError:
		msg, err := wire.ReadText(conn, h.PayloadLen)
		if err != nil {
			t.Fatal(err)
		}
		return h, msg
	default:
		if err := wire.DiscardPayload(conn, h.PayloadLen); err != nil {
			t.Fatal(err)
		}
		return h, ""
	}
}

// TestServeDeadlineExceeded: a request whose wire deadline has already
// passed is shed at execution time with a typed error frame.
func TestServeDeadlineExceeded(t *testing.T) {
	_, addr := startServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const n = 64
	x := ref.RandomVector(n, 1)
	rawRequest(t, conn, wire.Header{
		Type:       wire.TForward,
		Alg:        wire.AlgExact,
		Count:      1,
		ReqID:      9,
		N:          n,
		Deadline:   time.Now().Add(-time.Second).UnixNano(),
		PayloadLen: n * wire.BytesPerElem,
	}, x)
	h, msg := readResponse(t, conn)
	if h.Type != wire.TError || h.Code != wire.CodeDeadlineExceeded {
		t.Fatalf("got type=%v code=%d msg=%q, want deadline-exceeded error frame", h.Type, h.Code, msg)
	}
	if h.ReqID != 9 {
		t.Errorf("response reqID %d, want 9", h.ReqID)
	}
	if !errors.Is(wire.ErrFor(h.Code, msg), wire.ErrDeadlineExceeded) {
		t.Errorf("code %d does not map to ErrDeadlineExceeded", h.Code)
	}
}

// TestServeOverload: admission control sheds transforms beyond MaxInFlight
// with typed overload error frames while admitted requests still complete.
func TestServeOverload(t *testing.T) {
	srv, addr := startServer(t, Config{MaxInFlight: 2, MaxBatch: 1, Workers: 1})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Request 1 occupies the single worker for many milliseconds; request 2
	// fills the remaining admission slot; 3..5 must shed. Admission counts
	// submitted transforms, so this holds regardless of execution timing as
	// long as request 1 has not finished — its length guarantees that.
	big := 1 << 20
	rawRequest(t, conn, wire.Header{
		Type: wire.TForward, Alg: wire.AlgExact, Count: 1, ReqID: 1,
		N: uint64(big), PayloadLen: uint64(big) * wire.BytesPerElem,
	}, make([]complex128, big))
	const n = 64
	x := ref.RandomVector(n, 2)
	for id := uint64(2); id <= 5; id++ {
		rawRequest(t, conn, wire.Header{
			Type: wire.TForward, Alg: wire.AlgExact, Count: 1, ReqID: id,
			N: n, PayloadLen: n * wire.BytesPerElem,
		}, x)
	}

	results := make(map[uint64]wire.Header, 5)
	for i := 0; i < 5; i++ {
		h, _ := readResponse(t, conn)
		results[h.ReqID] = h
	}
	if h := results[1]; h.Type != wire.TResult {
		t.Errorf("big request: type %v code %d, want result", h.Type, h.Code)
	}
	okN, shedN := 0, 0
	for id := uint64(2); id <= 5; id++ {
		switch h := results[id]; {
		case h.Type == wire.TResult:
			okN++
		case h.Type == wire.TError && h.Code == wire.CodeOverloaded:
			shedN++
		default:
			t.Errorf("req %d: unexpected type %v code %d", id, h.Type, h.Code)
		}
	}
	if okN != 1 || shedN != 3 {
		t.Errorf("admitted %d / shed %d small requests, want 1 / 3", okN, shedN)
	}
	if st := srv.Snapshot(); st.ShedOverload != 3 {
		t.Errorf("shed_overload stat %d, want 3", st.ShedOverload)
	}
}

// TestServeGracefulDrain: Shutdown completes in-flight requests (response
// delivered and correct) while refusing new connections.
func TestServeGracefulDrain(t *testing.T) {
	srv, addr := startServer(t, Config{Workers: 1})
	cl := dialClient(t, addr)
	cl.SetAlg(client.Exact)

	const n = 1 << 20
	x := ref.RandomVector(n, 3)
	dst := make([]complex128, n)
	reqErr := make(chan error, 1)
	go func() { reqErr <- cl.Forward(context.Background(), dst, x) }()

	// Let the request reach the scheduler before draining.
	deadline := time.Now().Add(5 * time.Second)
	for srv.sched.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-reqErr; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	// Spot-check the drained response actually carries the transform.
	if dst[0] == 0 && dst[1] == 0 {
		t.Error("drained response payload looks empty")
	}
	if _, err := client.Dial(addr); err == nil {
		t.Error("Dial succeeded after Shutdown; listener should be closed")
	}
	if st := srv.Snapshot(); st.Completed != 1 {
		t.Errorf("completed %d, want 1", st.Completed)
	}
}

// TestServeBatchingCoalesces: pipelined same-length requests coalesce into
// multi-transform kernel batches (the tentpole behavior).
func TestServeBatchingCoalesces(t *testing.T) {
	srv, addr := startServer(t, Config{Workers: 1, MaxBatch: 32})
	cl := dialClient(t, addr)
	cl.SetAlg(client.Exact)

	const n = 2048
	const goroutines = 12
	const rounds = 6
	x := ref.RandomVector(n, 4)
	want := ref.DFT(x)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			dst := make([]complex128, n)
			for r := 0; r < rounds; r++ {
				if err := cl.Forward(context.Background(), dst, x); err != nil {
					t.Errorf("Forward: %v", err)
					return
				}
				if e := cvec.RelErrL2(dst, want); e > 1e-9 {
					t.Errorf("batched transform rel err %g", e)
					return
				}
			}
		}()
	}
	wg.Wait()

	st := srv.Snapshot()
	if st.Completed != goroutines*rounds {
		t.Errorf("completed %d, want %d", st.Completed, goroutines*rounds)
	}
	if st.MeanBatch() <= 1.2 {
		t.Errorf("mean executed batch %.2f; pipelined load should coalesce (>1.2)", st.MeanBatch())
	}
	if st.MaxBatch < 2 {
		t.Errorf("max batch %d, want >= 2", st.MaxBatch)
	}
	for _, ph := range []string{"Queue wait", "Execute", "Serialize"} {
		if st.PhaseSeconds[ph] <= 0 {
			t.Errorf("phase %q not accounted", ph)
		}
	}
}

// TestServeStats: the TStats frame round-trips the metrics text and the
// client parses it.
func TestServeStats(t *testing.T) {
	srv, addr := startServer(t, Config{})
	cl := dialClient(t, addr)
	cl.SetAlg(client.Exact)

	const n = 64
	x := ref.RandomVector(n, 5)
	dst := make([]complex128, n)
	if err := cl.Forward(context.Background(), dst, x); err != nil {
		t.Fatal(err)
	}
	m, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"soifftd_completed_total", "soifftd_mean_batch_size",
		"soifftd_plan_cache_entries", "soifftd_phase_execute_seconds",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("metric %q missing (have %v)", key, m) // fmt prints map keys sorted
		}
	}
	if m["soifftd_completed_total"] != 1 {
		t.Errorf("completed_total %v, want 1", m["soifftd_completed_total"])
	}
	if !strings.Contains(srv.MetricsText(), "soifftd_connections_total 1") {
		t.Errorf("MetricsText missing connection count:\n%s", srv.MetricsText())
	}
}

// TestServeBadGeometry: a frame with broken geometry earns a typed error
// frame and the stream stays usable for the next request.
func TestServeBadGeometry(t *testing.T) {
	_, addr := startServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// n=0 with an empty payload: rejected without desyncing the stream.
	rawRequest(t, conn, wire.Header{Type: wire.TForward, ReqID: 1}, nil)
	h, _ := readResponse(t, conn)
	if h.Type != wire.TError || h.Code != wire.CodeBadRequest || h.ReqID != 1 {
		t.Fatalf("got type=%v code=%d id=%d, want bad-request for req 1", h.Type, h.Code, h.ReqID)
	}

	const n = 64
	x := ref.RandomVector(n, 6)
	rawRequest(t, conn, wire.Header{
		Type: wire.TForward, Alg: wire.AlgExact, Count: 1, ReqID: 2,
		N: n, PayloadLen: n * wire.BytesPerElem,
	}, x)
	if h, _ := readResponse(t, conn); h.Type != wire.TResult || h.ReqID != 2 {
		t.Fatalf("stream desynced after rejected frame: type=%v id=%d", h.Type, h.ReqID)
	}

	// Response-typed frames from a client are a protocol violation: the
	// server answers with an error frame and hangs up.
	rawRequest(t, conn, wire.Header{Type: wire.TResult, ReqID: 3}, nil)
	if h, _ := readResponse(t, conn); h.Type != wire.TError || h.ReqID != 3 {
		t.Fatalf("got type=%v id=%d, want error frame for req 3", h.Type, h.ReqID)
	}
	if _, err := wire.ReadHeader(conn); err == nil {
		t.Error("connection still open after protocol violation")
	}
}

// TestResolveAlg: AlgAuto is the exact plan at every length, long SOI-valid
// ones included; SOI is served to the requests that name it, and naming it
// for a length the server's SOI configuration cannot plan is a bad request.
func TestResolveAlg(t *testing.T) {
	s := New(Config{SOI: hammerCfg})
	defer s.Close()
	soiValid := 7 << 18 // >= 2^20, valid under hammerCfg
	if ok, _ := soifft.ValidLength(soiValid, hammerCfg); !ok {
		t.Fatalf("test length %d is not SOI-valid", soiValid)
	}
	for _, tc := range []struct {
		alg     wire.Alg
		n       int
		want    algKind
		wantErr error
	}{
		{wire.AlgAuto, 1024, algExact, nil},
		{wire.AlgAuto, soiValid, algExact, nil},
		{wire.AlgExact, soiValid, algExact, nil},
		{wire.AlgSOI, soiValid, algSOI, nil},
		{wire.AlgSOI, soiValid + 1, 0, wire.ErrBadRequest},
		{wire.Alg(9), 1024, 0, wire.ErrBadRequest},
	} {
		got, err := s.resolveAlg(tc.alg, tc.n)
		if !errors.Is(err, tc.wantErr) || (err == nil) != (tc.wantErr == nil) || got != tc.want {
			t.Errorf("resolveAlg(%d, %d) = %v, %v; want %v, %v", tc.alg, tc.n, got, err, tc.want, tc.wantErr)
		}
	}
}
