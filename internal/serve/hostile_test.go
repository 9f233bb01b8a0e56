package serve

import (
	"net"
	"runtime"
	"testing"

	"soifft/internal/codec"
	"soifft/internal/ref"
	"soifft/internal/wire"
)

// hostileCfg keeps the resync ceiling small and deterministic:
// maxResyncBytes(1<<16, 4) = 2^16 * 4 * 16 = 16 MiB.
var hostileCfg = Config{MaxN: 1 << 16, MaxCount: 4}

// TestServeHostileGeometry drives the server with raw frames whose header
// geometry is forged near the uint64 edges. Every frame must be answered
// with a typed error (or a hangup for unsalvageable streams) without the
// server allocating anything near the declared sizes, and a salvageable
// stream must go on to serve a valid request.
func TestServeHostileGeometry(t *testing.T) {
	_, addr := startServer(t, hostileCfg)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	// Each frame's declared geometry wraps, overflows, or lies about its
	// payload, but the actual bytes on the wire (sent) stay tiny so the
	// server can discard them and keep the stream in sync.
	hostile := []struct {
		name string
		h    wire.Header
		sent int    // payload elems actually written
		raw  []byte // or these payload bytes
	}{
		{
			// N*Count*BytesPerElem wraps mod 2^64 to exactly PayloadLen: a
			// modular consistency check would admit a 2^62-element alloc.
			name: "wrap-consistent product",
			h:    wire.Header{Type: wire.TBatch, Alg: wire.AlgExact, Count: 4, ReqID: 1, N: 1<<62 + 1, PayloadLen: 4 * wire.BytesPerElem},
			sent: 4,
		},
		{
			// int(h.N) is negative: must be rejected on the raw uint64, not
			// slide under a signed MaxN comparison.
			name: "N at 2^63",
			h:    wire.Header{Type: wire.TForward, Alg: wire.AlgExact, Count: 1, ReqID: 2, N: 1 << 63, PayloadLen: 0},
		},
		{
			// Geometry is admissible but PayloadLen disagrees with it.
			name: "payload/geometry mismatch",
			h:    wire.Header{Type: wire.TForward, Alg: wire.AlgExact, Count: 1, ReqID: 3, N: 64, PayloadLen: 8 * wire.BytesPerElem},
			sent: 8,
		},
		{
			// Within CheckedSize's limit but over this server's MaxN; the
			// lying PayloadLen stays small so the stream is recoverable.
			name: "N over server limit",
			h:    wire.Header{Type: wire.TForward, Alg: wire.AlgExact, Count: 1, ReqID: 4, N: 1 << 20, PayloadLen: 2 * wire.BytesPerElem},
			sent: 2,
		},
		{
			// Within every limit and under the codec's payload ceiling, but
			// no deltaplane stream of one byte encodes 4 x 2^16 points: the
			// floor rejects it before the 4 MiB request buffer is taken.
			name: "compressed payload under the floor",
			h:    wire.Header{Type: wire.TBatch, Alg: wire.AlgExact, Codec: codec.DeltaPlane, Count: 4, ReqID: 5, N: 1 << 16, PayloadLen: 1},
			raw:  []byte{0},
		},
	}

	for _, tc := range hostile {
		var payload []complex128
		if tc.sent > 0 {
			payload = make([]complex128, tc.sent)
		}
		rawRequest(t, conn, tc.h, payload)
		if _, err := conn.Write(tc.raw); err != nil {
			t.Fatal(err)
		}
		h, msg := readResponse(t, conn)
		if h.Type != wire.TError || h.Code != wire.CodeBadRequest || h.ReqID != tc.h.ReqID {
			t.Fatalf("%s: got type=%v code=%d id=%d msg=%q, want bad-request for id %d",
				tc.name, h.Type, h.Code, h.ReqID, msg, tc.h.ReqID)
		}
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	// Five rejected frames must not cost anything like their declared
	// sizes: tiny error frames and scratch only. 1 MiB is two orders of
	// magnitude above what the exchange needs and 2^40 below the forgeries.
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 1<<20 {
		t.Errorf("hostile frames drove %d bytes of allocation, want < 1 MiB", delta)
	}

	// The stream stayed in sync: a well-formed request on the same
	// connection is still served.
	const n = 64
	x := ref.RandomVector(n, 11)
	rawRequest(t, conn, wire.Header{
		Type: wire.TForward, Alg: wire.AlgExact, Count: 1, ReqID: 9,
		N: n, PayloadLen: n * wire.BytesPerElem,
	}, x)
	if h, _ := readResponse(t, conn); h.Type != wire.TResult || h.ReqID != 9 {
		t.Fatalf("stream desynced after hostile frames: type=%v id=%d", h.Type, h.ReqID)
	}
}

// TestServeHostileResyncCap: a rejected frame whose declared payload
// exceeds the largest frame the server's own limits admit is not worth
// discarding — the server sends the error frame and hangs up rather than
// reading (up to) 2^64 bytes to stay in sync. A fresh connection works.
func TestServeHostileResyncCap(t *testing.T) {
	_, addr := startServer(t, hostileCfg)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	rawRequest(t, conn, wire.Header{
		Type: wire.TForward, Alg: wire.AlgExact, Count: 1, ReqID: 1,
		N: 1<<64 - 1, PayloadLen: 1<<64 - 1,
	}, nil)
	h, _ := readResponse(t, conn)
	if h.Type != wire.TError || h.Code != wire.CodeBadRequest || h.ReqID != 1 {
		t.Fatalf("got type=%v code=%d id=%d, want bad-request error frame", h.Type, h.Code, h.ReqID)
	}
	if _, err := wire.ReadHeader(conn); err == nil {
		t.Error("connection survived an unsalvageable frame; want hangup after the error frame")
	}

	// The hangup is per-connection: the server still accepts new peers.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	const n = 32
	x := ref.RandomVector(n, 12)
	rawRequest(t, conn2, wire.Header{
		Type: wire.TForward, Alg: wire.AlgExact, Count: 1, ReqID: 2,
		N: n, PayloadLen: n * wire.BytesPerElem,
	}, x)
	if h, _ := readResponse(t, conn2); h.Type != wire.TResult || h.ReqID != 2 {
		t.Fatalf("fresh connection not served after hostile hangup: type=%v id=%d", h.Type, h.ReqID)
	}
}

// TestServeEnforcesConfiguredLimits: a frame that is honest about itself —
// geometry, payload length and the bytes that follow all agree — but asks
// for more than Config.MaxN points or Config.MaxCount transforms draws a
// bad-request error, the stream stays in sync, and a request at the limits
// is served. (TestServeHostileGeometry's over-limit frame also lies about
// its payload, so it is rejected with or without the two limit checks:
// analysis matrix row serve-limits-unenforced.)
func TestServeEnforcesConfiguredLimits(t *testing.T) {
	cfg := Config{MaxN: 256, MaxCount: 4}
	_, addr := startServer(t, cfg)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	for id, g := range []struct{ n, count int }{{2 * cfg.MaxN, 1}, {64, cfg.MaxCount + 1}} {
		typ := wire.TBatch
		if g.count == 1 {
			typ = wire.TForward
		}
		elems := g.n * g.count
		rawRequest(t, conn, wire.Header{
			Type: typ, Alg: wire.AlgExact, Count: uint32(g.count), ReqID: uint64(id + 1),
			N: uint64(g.n), PayloadLen: uint64(elems) * wire.BytesPerElem,
		}, ref.RandomVector(elems, int64(id)))
		h, msg := readResponse(t, conn)
		if h.Type != wire.TError || h.Code != wire.CodeBadRequest || h.ReqID != uint64(id+1) {
			t.Fatalf("n=%d count=%d: got type=%v code=%d id=%d msg=%q, want bad-request for id %d",
				g.n, g.count, h.Type, h.Code, h.ReqID, msg, id+1)
		}
	}

	elems := cfg.MaxN * cfg.MaxCount
	rawRequest(t, conn, wire.Header{
		Type: wire.TBatch, Alg: wire.AlgExact, Count: uint32(cfg.MaxCount), ReqID: 9,
		N: uint64(cfg.MaxN), PayloadLen: uint64(elems) * wire.BytesPerElem,
	}, ref.RandomVector(elems, 3))
	if h, _ := readResponse(t, conn); h.Type != wire.TResult || h.ReqID != 9 {
		t.Fatalf("request at the limits: type=%v id=%d, want a result", h.Type, h.ReqID)
	}
}
