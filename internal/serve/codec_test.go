package serve

import (
	"context"
	"errors"
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"soifft"
	"soifft/client"
	"soifft/internal/codec"
	"soifft/internal/cvec"
	"soifft/internal/ref"
	"soifft/internal/wire"
)

// TestServeCodecRoundTrip runs the exact path under every codec: the
// lossless codecs must match the reference DFT as tightly as identity, and
// Quant must stay within its declared per-element tolerance on top of the
// transform's own accuracy.
func TestServeCodecRoundTrip(t *testing.T) {
	_, addr := startServer(t, Config{})
	ctx := context.Background()
	const n = 256
	x := ref.RandomVector(n, 3)
	want := ref.DFT(x)

	for _, tc := range []struct {
		name string
		tol  float64
		acc  float64 // end-to-end bound vs the reference DFT
	}{
		{"identity", 0, 1e-9},
		{"deltaplane", 0, 1e-9},
		{"quant", 1e-12, 1e-9},
		{"quant", 1e-6, 1e-4}, // coarse: request+response quantization dominates
	} {
		cl := dialClient(t, addr)
		cl.SetAlg(client.Exact)
		if err := cl.SetCodec(tc.name, tc.tol); err != nil {
			t.Fatal(err)
		}
		dst := make([]complex128, n)
		if err := cl.Forward(ctx, dst, x); err != nil {
			t.Fatalf("%s(%g) Forward: %v", tc.name, tc.tol, err)
		}
		if e := cvec.RelErrL2(dst, want); e > tc.acc {
			t.Errorf("%s(%g): rel err %g > %g", tc.name, tc.tol, e, tc.acc)
		}
		inv := make([]complex128, n)
		if err := cl.Inverse(ctx, inv, dst); err != nil {
			t.Fatalf("%s(%g) Inverse: %v", tc.name, tc.tol, err)
		}
		if e := cvec.RelErrL2(inv, x); e > tc.acc {
			t.Errorf("%s(%g) Inverse(Forward): rel err %g > %g", tc.name, tc.tol, e, tc.acc)
		}
	}
}

// TestServeCodecConcurrentClients sends from several goroutines on two
// connections of one process at once under a compressing codec, so the
// pooled staging a request (client side) or a response (server side) is
// encoded into is borrowed by one goroutine while another is still writing
// from its own: a buffer handed back before its write returns is re-filled
// under that write. The inputs are smooth, so every caller's Inverse of a
// spectrum answers with a smooth signal whose encoding pays and goes
// through the server's staging, while its Forward answers with a spectrum
// that falls back to raw; every request is encoded. Every answer is checked
// against the reference DFT, not against an earlier answer, because batch
// coalescing may change the last bits from one call to the next. The
// response counters then split the codec responses exactly so, and leave
// an identity call out.
func TestServeCodecConcurrentClients(t *testing.T) {
	srv, addr := startServer(t, Config{})
	ctx := context.Background()
	const n, callers, calls = 2048, 4, 40
	base := make([]complex128, n)
	for _, tone := range []struct{ bin, amp, phase float64 }{{1, 1, 0.3}, {3, 0.6, 1.1}, {7, 0.25, 2.9}} {
		for i := range base {
			s, c := math.Sincos(2*math.Pi*tone.bin*float64(i)/n + tone.phase)
			base[i] += complex(tone.amp*c, tone.amp*s)
		}
	}
	baseDFT := ref.DFT(base)
	var wg sync.WaitGroup
	for c := range 2 {
		cl := dialClient(t, addr)
		cl.SetAlg(client.Exact)
		if err := cl.SetCodec("deltaplane", 0); err != nil {
			t.Fatal(err)
		}
		for g := range callers {
			// Distinct inputs per caller, so a payload encoded over another
			// caller's shows; their DFTs follow from one by linearity.
			scale := complex(float64(1+c*callers+g), 0)
			x, want := make([]complex128, n), make([]complex128, n)
			for i := range x {
				x[i], want[i] = scale*base[i], scale*baseDFT[i]
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				dst := make([]complex128, n)
				for i := range calls {
					if err := cl.Forward(ctx, dst, x); err != nil {
						t.Errorf("client %d caller %d call %d: Forward: %v", c, g, i, err)
						return
					}
					if e := cvec.RelErrL2(dst, want); e > 1e-9 {
						t.Errorf("client %d caller %d call %d: Forward rel err %g > 1e-9", c, g, i, e)
						return
					}
					if err := cl.Inverse(ctx, dst, want); err != nil {
						t.Errorf("client %d caller %d call %d: Inverse: %v", c, g, i, err)
						return
					}
					if e := cvec.RelErrL2(dst, x); e > 1e-9 {
						t.Errorf("client %d caller %d call %d: Inverse rel err %g > 1e-9", c, g, i, e)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	plain := dialClient(t, addr)
	if err := plain.Inverse(ctx, make([]complex128, n), baseDFT); err != nil {
		t.Fatal(err)
	}
	snap := srv.Snapshot()
	if want := int64(2 * callers * calls); snap.ResponsesEncoded != want || snap.ResponsesRaw != want {
		t.Errorf("responses encoded %d, raw %d; want %d each (identity calls uncounted)", snap.ResponsesEncoded, snap.ResponsesRaw, want)
	}
	m := client.ParseStats(srv.MetricsText())
	if m["soifftd_responses_encoded_total"] != float64(snap.ResponsesEncoded) || m["soifftd_responses_raw_total"] != float64(snap.ResponsesRaw) {
		t.Errorf("metrics text: encoded %v, raw %v; snapshot %d, %d", m["soifftd_responses_encoded_total"], m["soifftd_responses_raw_total"], snap.ResponsesEncoded, snap.ResponsesRaw)
	}
}

// TestServeSOICodecBudget runs the SOI path with a lossy request codec
// budgeted at 1/16 of the plan's designed bound (the discipline DESIGN.md
// §10 prescribes): the end-to-end error must stay within the same margin
// of EstimatedError that the uncompressed SOI serving test allows.
func TestServeSOICodecBudget(t *testing.T) {
	soiCfg := soifft.Config{Segments: 2, ConvWidth: 48}
	_, addr := startServer(t, Config{SOI: soiCfg, Workers: 1})
	ctx := context.Background()

	const n = 896
	local, err := soifft.NewPlan(n, soiCfg)
	if err != nil {
		t.Fatal(err)
	}
	budget := local.EstimatedError()

	for _, tc := range []struct {
		name string
		tol  float64
	}{
		{"deltaplane", 0},
		{"quant", budget / 16},
		// A coarse request: the server clamps the response leg to its own
		// budget, and the client-side input quantization at 8x the designed
		// bound still keeps the total within the 10x test margin.
		{"quant", budget * 8},
	} {
		cl := dialClient(t, addr)
		cl.SetAlg(client.SOI)
		if err := cl.SetCodec(tc.name, tc.tol); err != nil {
			t.Fatal(err)
		}
		x := ref.RandomVector(n, 7)
		dst := make([]complex128, n)
		if err := cl.Forward(ctx, dst, x); err != nil {
			t.Fatalf("%s(%g) SOI Forward: %v", tc.name, tc.tol, err)
		}
		if e := cvec.RelErrL2(dst, ref.DFT(x)); e > 10*budget {
			t.Errorf("%s(%g): SOI rel err %g > 10x designed bound %g", tc.name, tc.tol, e, budget)
		}
	}
}

// TestServeCodecTamper drives the server with corrupted compressed frames:
// every case must draw a typed bad-request error frame (never a silently
// wrong result, never a hang), and cases that desync the stream must end in
// a hangup rather than a wedged connection.
func TestServeCodecTamper(t *testing.T) {
	_, addr := startServer(t, hostileCfg)
	const n = 512
	x := ref.RandomVector(n, 5)
	dp := codec.MustFor(codec.DeltaPlane, 0)
	enc := codec.AppendVector(nil, dp, x)

	dial := func() net.Conn {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second)) // no-hang backstop
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	header := func() wire.Header {
		return wire.Header{Type: wire.TForward, Alg: wire.AlgExact, Codec: codec.DeltaPlane,
			Count: 1, ReqID: 1, N: n, PayloadLen: uint64(len(enc))}
	}
	expectBadRequest := func(t *testing.T, conn net.Conn) {
		h, msg := readResponse(t, conn)
		if h.Type != wire.TError || h.Code != wire.CodeBadRequest {
			t.Fatalf("got type=%v code=%d msg=%q, want bad-request error frame", h.Type, h.Code, msg)
		}
	}
	expectHangup := func(t *testing.T, conn net.Conn) {
		if _, err := wire.ReadHeader(conn); !errors.Is(err, io.EOF) && err == nil {
			t.Fatal("connection still open after an unsalvageable frame")
		}
	}

	t.Run("flipped payload byte", func(t *testing.T) {
		conn := dial()
		h := header()
		if err := wire.WriteHeader(conn, &h); err != nil {
			t.Fatal(err)
		}
		bad := append([]byte(nil), enc...)
		bad[len(bad)/2] ^= 0x20 // body corruption: CRC catches it
		if _, err := conn.Write(bad); err != nil {
			t.Fatal(err)
		}
		expectBadRequest(t, conn)
		expectHangup(t, conn) // position inside the payload is unknowable
	})

	t.Run("truncated payload then close", func(t *testing.T) {
		conn := dial()
		h := header()
		if err := wire.WriteHeader(conn, &h); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(enc[:len(enc)/3]); err != nil {
			t.Fatal(err)
		}
		conn.(*net.TCPConn).CloseWrite()
		// The declared payload never arrives: the server gives up (EOF on the
		// payload read) and hangs up without a result. A plain close — not an
		// error frame — is correct here: the request was never decodable.
		if rh, err := wire.ReadHeader(conn); err == nil && rh.Type == wire.TResult {
			t.Fatal("truncated payload produced a result")
		}
	})

	t.Run("unknown codec ID resyncs", func(t *testing.T) {
		conn := dial()
		raw := make([]byte, wire.HeaderLen)
		h := header()
		h.PayloadLen = 8
		buf := &rawBuf{b: raw[:0]}
		if err := wire.WriteHeader(buf, &h); err != nil {
			t.Fatal(err)
		}
		frame := buf.b
		frame[5] = 200 // unknown codec ID: rejected before the payload read
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
		expectBadRequest(t, conn)
		// The payload was discarded by length: the stream stays usable.
		rawRequest(t, conn, wire.Header{Type: wire.TForward, Alg: wire.AlgExact,
			Count: 1, ReqID: 2, N: 64, PayloadLen: 64 * wire.BytesPerElem}, ref.RandomVector(64, 1))
		if h, _ := readResponse(t, conn); h.Type != wire.TResult || h.ReqID != 2 {
			t.Fatalf("stream desynced after unknown codec: type=%v id=%d", h.Type, h.ReqID)
		}
	})

	t.Run("payload over codec bound", func(t *testing.T) {
		conn := dial()
		h := header()
		h.PayloadLen = codec.MaxEncodedLen(n) + 1
		if err := wire.WriteHeader(conn, &h); err != nil {
			t.Fatal(err)
		}
		// The declared length is over the codec bound for n elements but
		// under the server's resync cap, so it discards the payload, answers
		// with a typed error, and keeps the stream usable.
		if _, err := conn.Write(make([]byte, h.PayloadLen)); err != nil {
			t.Fatal(err)
		}
		expectBadRequest(t, conn)
		rawRequest(t, conn, wire.Header{Type: wire.TForward, Alg: wire.AlgExact,
			Count: 1, ReqID: 3, N: 64, PayloadLen: 64 * wire.BytesPerElem}, ref.RandomVector(64, 2))
		if h, _ := readResponse(t, conn); h.Type != wire.TResult || h.ReqID != 3 {
			t.Fatalf("stream desynced after over-bound payload: type=%v id=%d", h.Type, h.ReqID)
		}
	})
}

// rawBuf lets wire.WriteHeader build header bytes for manual corruption.
type rawBuf struct{ b []byte }

func (r *rawBuf) Write(p []byte) (int, error) {
	r.b = append(r.b, p...)
	return len(p), nil
}

// TestServeV1Interop is the old-protocol compatibility check: a client
// speaking byte-for-byte version 1 (no codec fields) gets version-1
// responses it can parse, for transforms, errors and stats alike.
func TestServeV1Interop(t *testing.T) {
	_, addr := startServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	const n = 128
	x := ref.RandomVector(n, 9)
	rawRequest(t, conn, wire.Header{Version: 1, Type: wire.TForward, Alg: wire.AlgExact,
		Count: 1, ReqID: 41, N: n, PayloadLen: n * wire.BytesPerElem}, x)
	h, err := wire.ReadHeader(conn)
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != 1 || h.Type != wire.TResult || h.ReqID != 41 || h.Codec != codec.Identity {
		t.Fatalf("v1 transform answered with %+v, want a v1 identity result", h)
	}
	dst := make([]complex128, n)
	if err := wire.ReadVector(conn, dst); err != nil {
		t.Fatal(err)
	}
	if e := cvec.RelErrL2(dst, ref.DFT(x)); e > 1e-9 {
		t.Errorf("v1 result err %g", e)
	}

	// Error frames echo v1 too (a v1-only peer must be able to parse them).
	rawRequest(t, conn, wire.Header{Version: 1, Type: wire.TForward, Alg: wire.AlgExact,
		Count: 3, ReqID: 42, N: n, PayloadLen: n * wire.BytesPerElem}, x)
	h, err = wire.ReadHeader(conn)
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != 1 || h.Type != wire.TError || h.ReqID != 42 {
		t.Fatalf("v1 bad request answered with %+v, want a v1 error frame", h)
	}
	if _, err := wire.ReadText(conn, h.PayloadLen); err != nil {
		t.Fatal(err)
	}

	// Stats frames as well.
	rawRequest(t, conn, wire.Header{Version: 1, Type: wire.TStats, ReqID: 43}, nil)
	h, err = wire.ReadHeader(conn)
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != 1 || h.Type != wire.TStatsResult || h.ReqID != 43 {
		t.Fatalf("v1 stats answered with %+v", h)
	}
	if _, err := wire.ReadText(conn, h.PayloadLen); err != nil {
		t.Fatal(err)
	}
}
