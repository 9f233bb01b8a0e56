package serve

import (
	"context"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soifft/internal/wire"
)

// pipeListener hands Serve one in-memory connection. net.Pipe has no
// buffer, so a peer that stops reading blocks the server's next write.
type pipeListener struct {
	conn net.Conn // the first Accept's result
	done chan struct{}
	once sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	if c := l.conn; c != nil {
		l.conn = nil
		return c, nil
	}
	<-l.done
	return nil, net.ErrClosed
}

func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Net: "pipe"} }

// writeSignal reports each write the server starts on its connection.
type writeSignal struct {
	net.Conn
	writes chan<- struct{}
}

func (c writeSignal) Write(p []byte) (int, error) {
	c.writes <- struct{}{}
	return c.Conn.Write(p)
}

// drainWithin shuts srv down and fails unless the drain completes cleanly
// within a bound far above the tests' I/O timeout.
func drainWithin(t *testing.T, srv *Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}
}

// TestServeDropsPeerThatStopsReading: a peer that never reads its response
// must not hold the connection's writer, and through it the drain.
func TestServeDropsPeerThatStopsReading(t *testing.T) {
	peer, sc := net.Pipe()
	defer peer.Close()
	writes := make(chan struct{}, 1)
	srv := serveOn(t, Config{IOTimeout: 50 * time.Millisecond},
		&pipeListener{conn: writeSignal{sc, writes}, done: make(chan struct{})})
	rawRequest(t, peer, wire.Header{Type: wire.TForward, Count: 1, N: 64, PayloadLen: 64 * wire.BytesPerElem},
		make([]complex128, 64))
	<-writes // the response write has started; nobody will read it
	drainWithin(t, srv)
	if _, err := io.Copy(io.Discard, peer); err != nil {
		t.Fatalf("connection not dropped: %v", err)
	}
}

// TestServeDropsPeerThatStallsMidPayload: a peer that stops sending halfway
// through a payload — of a frame being admitted, or of one being rejected
// and discarded — is disconnected after the I/O timeout.
func TestServeDropsPeerThatStallsMidPayload(t *testing.T) {
	for name, h := range map[string]wire.Header{
		"admitted": {Type: wire.TForward, Count: 1, N: 64, PayloadLen: 64 * wire.BytesPerElem},
		"rejected": {Type: wire.TForward, Count: 2, N: 32, PayloadLen: 64 * wire.BytesPerElem},
	} {
		t.Run(name, func(t *testing.T) {
			srv, addr := startServer(t, Config{IOTimeout: 50 * time.Millisecond})
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := wire.WriteHeader(conn, &h); err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(make([]byte, h.PayloadLen/2)); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := io.Copy(io.Discard, conn); err != nil {
				t.Fatalf("connection not dropped: %v", err)
			}
			drainWithin(t, srv)
		})
	}
}

// TestServeReturnsPooledBuffers counts bufPool misses over k sequential
// requests of one shape. Every buffer a request borrows goes back, so the
// pool misses while it warms up and then never: a constant, not one miss
// per request. The collector is off and the process on one P, so nothing
// but a missing put empties the pool.
func TestServeReturnsPooledBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n, k = 64, 32
	for _, tc := range []struct {
		name  string
		count int
		alg   wire.Alg
	}{{"rejected algorithm", 1, 9}, {"forward", 1, wire.AlgExact}, {"batch", 2, wire.AlgExact}} {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr := startServer(t, Config{})
			var misses atomic.Int64
			srv.bufs.mu.Lock()
			srv.bufs.pools = map[int]*sync.Pool{n * tc.count: {New: func() any {
				misses.Add(1)
				s := make([]complex128, n*tc.count)
				return &s
			}}}
			srv.bufs.mu.Unlock()
			cl := dialClient(t, addr)
			cl.SetAlg(tc.alg)
			x := make([]complex128, n*tc.count)
			for range k {
				if err := cl.Batch(context.Background(), x, x, tc.count, false); (err != nil) != (tc.alg == 9) {
					t.Fatalf("request: %v", err)
				}
			}
			if m := misses.Load(); m > 4 {
				t.Errorf("%d pool misses over %d requests, want a warm-up of at most 4", m, k)
			}
		})
	}
}
