package mpi

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/debug"
	"sync"
	"testing"
	"time"
)

// isTyped reports membership in the transport layer's typed failure
// vocabulary (the mpi-local mirror of faultcomm.Typed, which cannot be
// imported here without a cycle).
func isTyped(err error) bool {
	var te *TransportError
	return err != nil && (errors.As(err, &te) ||
		errors.Is(err, ErrClosed) || errors.Is(err, ErrTimeout) || errors.Is(err, ErrAborted))
}

// runWorld drives fn over a fresh world with the given per-op timeout and
// returns each rank's error (unlike Run, which collapses them into one).
func runWorld(t *testing.T, size int, opTimeout time.Duration, fn func(Comm) error) []error {
	t.Helper()
	w, err := NewWorld(size)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.SetOpTimeout(opTimeout)
	errs := make([]error, size)
	var wg sync.WaitGroup
	wg.Add(size)
	for r := 0; r < size; r++ {
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(w.Comm(r))
		}(r)
	}
	wg.Wait()
	return errs
}

// TestSendRecvErrorPaths drives mpi.SendRecv through each failure shape
// and asserts the error lands in the typed vocabulary via errors.Is/As.
func TestSendRecvErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		// peer is what rank 1 does while rank 0 runs the SendRecv; it
		// closes ready once the failure condition is fully set up.
		peer     func(c Comm, ready chan<- struct{}) error
		wantIs   error
		wantOp   string
		wantPeer int
	}{
		{
			name: "peer closed mid-exchange",
			peer: func(c Comm, ready chan<- struct{}) error {
				err := c.Close()
				close(ready)
				return err
			},
			wantIs:   ErrClosed,
			wantOp:   "", // the send itself fails before any TransportError wrapping
			wantPeer: 1,
		},
		{
			name: "timeout expiry: peer never sends",
			peer: func(c Comm, ready chan<- struct{}) error {
				close(ready)
				_, _, err := c.Recv(0, 7)
				return err
			},
			wantIs:   ErrTimeout,
			wantOp:   "recv",
			wantPeer: 1,
		},
		{
			name: "mismatched tag",
			peer: func(c Comm, ready chan<- struct{}) error {
				err := c.Send(0, 99, []complex128{1}) // wrong tag
				close(ready)
				if err != nil {
					return err
				}
				_, _, err = c.Recv(0, 7)
				return err
			},
			wantIs:   ErrTimeout,
			wantOp:   "recv",
			wantPeer: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ready := make(chan struct{})
			errs := runWorld(t, 2, 80*time.Millisecond, func(c Comm) error {
				if c.Rank() == 1 {
					return tc.peer(c, ready)
				}
				<-ready
				_, err := SendRecv(c, 1, []complex128{2i}, 1, 7)
				return err
			})
			err := errs[0]
			if !errors.Is(err, tc.wantIs) {
				t.Fatalf("rank 0 got %v, want errors.Is(%v)", err, tc.wantIs)
			}
			if tc.wantOp != "" {
				var te *TransportError
				if !errors.As(err, &te) {
					t.Fatalf("rank 0 error %v is not a *TransportError", err)
				}
				if te.Op != tc.wantOp || te.Peer != tc.wantPeer {
					t.Fatalf("TransportError{Op:%q Peer:%d}, want {Op:%q Peer:%d}", te.Op, te.Peer, tc.wantOp, tc.wantPeer)
				}
			}
		})
	}
}

// TestCollectiveErrorPaths kills one rank under each collective and
// asserts every surviving rank resolves to a typed error or a clean
// return within the per-op deadline — no hang, no untyped failure.
func TestCollectiveErrorPaths(t *testing.T) {
	const size = 4
	data := []complex128{1, 2i}
	collectives := []struct {
		name string
		run  func(c Comm) error
	}{
		{"Bcast", func(c Comm) error { _, err := Bcast(c, 0, data); return err }},
		{"Gather", func(c Comm) error { _, err := Gather(c, 0, data); return err }},
		{"AllToAll", func(c Comm) error {
			send := make([][]complex128, c.Size())
			for i := range send {
				send[i] = data
			}
			_, err := AllToAll(c, send)
			return err
		}},
		{"Barrier", func(c Comm) error { return Barrier(c) }},
		{"SendRecvRing", func(c Comm) error {
			p := c.Size()
			_, err := SendRecv(c, (c.Rank()+1)%p, data, (c.Rank()+p-1)%p, 5)
			return err
		}},
	}
	for _, col := range collectives {
		t.Run(col.name+"/peer closed", func(t *testing.T) {
			start := time.Now()
			dead := make(chan struct{})
			errs := runWorld(t, size, 100*time.Millisecond, func(c Comm) error {
				if c.Rank() == size-1 {
					defer close(dead)
					return c.Close() // dies without participating
				}
				// A survivor that reaches the peer before it has died
				// would deliver into a live mailbox and notice nothing.
				<-dead
				return col.run(c)
			})
			failed := 0
			for r := 0; r < size-1; r++ {
				if errs[r] == nil {
					continue // not every rank necessarily touches the dead one
				}
				failed++
				if !isTyped(errs[r]) {
					t.Fatalf("rank %d: non-typed error %v", r, errs[r])
				}
			}
			if failed == 0 {
				t.Fatalf("no surviving rank noticed the dead peer in %s", col.name)
			}
			// Generous bound: every op carries a 100ms deadline, and each
			// survivor issues only a handful of ops.
			if e := time.Since(start); e > 5*time.Second {
				t.Fatalf("collective took %v to resolve; deadline discipline lost", e)
			}
		})
	}
}

// TestAbortUnblocksCollectiveWithoutDeadline: crash propagation must
// resolve blocked ranks even when no per-op deadline is set at all.
func TestAbortUnblocksCollectiveWithoutDeadline(t *testing.T) {
	w, err := NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	cause := errors.New("rank 2 exploded")
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	for r := 0; r < 2; r++ {
		go func(r int) {
			defer wg.Done()
			errs[r] = Barrier(w.Comm(r)) // blocks: rank 2 never enters
		}(r)
	}
	time.Sleep(20 * time.Millisecond) // let them block
	w.Abort(cause)
	wg.Wait()
	for r, err := range errs {
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("rank %d: %v, want ErrAborted", r, err)
		}
		if !errors.Is(err, cause) {
			t.Fatalf("rank %d: abort lost the root cause: %v", r, err)
		}
	}
}

// TestRunReportsRootCauseNotFallout: mpi.Run must return the failing
// rank's own error, not the ErrAborted fallout its peers see.
func TestRunReportsRootCauseNotFallout(t *testing.T) {
	rootCause := errors.New("rank 1 application bug")
	err := Run(4, func(c Comm) error {
		if c.Rank() == 1 {
			return rootCause
		}
		return Barrier(c) // will be aborted
	})
	if !errors.Is(err, rootCause) {
		t.Fatalf("Run returned %v, want the root cause %v", err, rootCause)
	}
	if errors.Is(err, ErrAborted) {
		t.Fatalf("Run returned abort fallout %v instead of the root cause", err)
	}
}

// TestRecvTimeoutHelper covers both halves of the RecvTimeout contract:
// deadline applied when the transport supports it, plain Recv otherwise.
func TestRecvTimeoutHelper(t *testing.T) {
	t.Run("deadline on supporting transport", func(t *testing.T) {
		errs := runWorld(t, 2, 0 /* no default: helper sets its own */, func(c Comm) error {
			if c.Rank() == 1 {
				return nil
			}
			_, _, err := RecvTimeout(c, 1, 3, 50*time.Millisecond)
			return err
		})
		var te *TransportError
		if !errors.As(errs[0], &te) || !errors.Is(errs[0], ErrTimeout) {
			t.Fatalf("got %v, want TransportError wrapping ErrTimeout", errs[0])
		}
	})
	t.Run("fallback without deadline support", func(t *testing.T) {
		errs := runWorld(t, 2, 0, func(c Comm) error {
			if c.Rank() == 1 {
				return c.Send(0, 3, []complex128{5})
			}
			// opaque hides RecvDeadline, forcing the plain-Recv fallback.
			data, _, err := RecvTimeout(opaque{c}, 1, 3, time.Second)
			if err != nil {
				return err
			}
			if len(data) != 1 || data[0] != 5 {
				return fmt.Errorf("fallback recv got %v", data)
			}
			return nil
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
	})
}

// opaque strips every non-Comm method (in particular RecvDeadline) from a
// communicator.
type opaque struct{ inner Comm }

func (o opaque) Rank() int                                    { return o.inner.Rank() }
func (o opaque) Size() int                                    { return o.inner.Size() }
func (o opaque) Send(dst, tag int, data []complex128) error   { return o.inner.Send(dst, tag, data) }
func (o opaque) Recv(src, tag int) ([]complex128, int, error) { return o.inner.Recv(src, tag) }
func (o opaque) Close() error                                 { return o.inner.Close() }

// TestConnectTCPDelayedListener is the startup-ordering regression test:
// rank 1 dials before rank 0's listener exists, and the dial retry loop
// must carry it through. Before the retry/backoff fix this raced: dials to
// a not-yet-listening address failed the whole mesh immediately.
func TestConnectTCPDelayedListener(t *testing.T) {
	// Reserve a port for rank 0, then free it so nothing is listening.
	probe, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr0 := probe.Addr().String()
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}
	ln1, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{addr0, ln1.Addr().String()}

	type res struct {
		node *TCPNode
		err  error
	}
	ch1 := make(chan res, 1)
	go func() {
		n, err := ConnectTCPOpts(1, 2, ln1, addrs, TCPOptions{ConnectTimeout: 10 * time.Second})
		ch1 <- res{n, err}
	}()

	// Rank 1 is now dialing a dead address; bring rank 0 up late.
	time.Sleep(100 * time.Millisecond)
	ln0, err := net.Listen("tcp", addr0)
	if err != nil {
		t.Fatalf("re-binding reserved port: %v (retry the test: port was reused)", err)
	}
	n0, err := ConnectTCPOpts(0, 2, ln0, addrs, TCPOptions{ConnectTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("rank 0 connect: %v", err)
	}
	defer n0.Close()
	r1 := <-ch1
	if r1.err != nil {
		t.Fatalf("rank 1 connect despite retry: %v", r1.err)
	}
	defer r1.node.Close()

	// The late mesh must actually carry traffic.
	if err := n0.Send(1, 2, []complex128{42}); err != nil {
		t.Fatal(err)
	}
	got, _, err := r1.node.Recv(0, 2)
	if err != nil || len(got) != 1 || got[0] != 42 {
		t.Fatalf("post-recovery exchange: %v %v", got, err)
	}
}

// TestConnectTCPDialDeadline: a peer that never appears must fail mesh
// formation with a typed dial error inside the overall deadline.
func TestConnectTCPDialDeadline(t *testing.T) {
	probe, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := probe.Addr().String()
	probe.Close()

	ln, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = ConnectTCPOpts(1, 2, ln, []string{deadAddr, ln.Addr().String()},
		TCPOptions{ConnectTimeout: 300 * time.Millisecond})
	if err == nil {
		t.Fatal("mesh formed against a dead peer")
	}
	var te *TransportError
	if !errors.As(err, &te) || te.Op != "dial" || !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want dial TransportError wrapping ErrTimeout", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("dial failure took %v, deadline was 300ms", e)
	}
}

// TestConnectTCPClosesRejectedPeer: a connection whose hello is refused —
// it names an invalid rank, or it ends early — fails mesh formation and is
// closed, so the peer sees end of stream rather than a silent socket. The
// collector is off: a leaked conn's finalizer must not close it for us.
func TestConnectTCPClosesRejectedPeer(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for name, hello := range map[string][]byte{
		"invalid rank":    {0, 0, 0, 0}, // rank 0 accepts only higher ranks
		"hello cut short": {0, 0},
	} {
		t.Run(name, func(t *testing.T) {
			ln, err := ListenTCP("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			peer, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer peer.Close()
			if _, err := peer.Write(hello); err != nil {
				t.Fatal(err)
			}
			if err := peer.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatal(err)
			}
			if _, err := ConnectTCP(0, 2, ln, nil); err == nil {
				t.Fatal("mesh formed with a rejected peer")
			}
			peer.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := io.Copy(io.Discard, peer); err != nil {
				t.Fatalf("rejected connection not closed: %v", err)
			}
		})
	}
}

// TestTCPPeerDeathFailsFast: when a peer's process dies (its connections
// drop), receives naming it must fail with a typed error promptly — driven
// by the readLoop's death notice, not by waiting out a deadline.
func TestTCPPeerDeathFailsFast(t *testing.T) {
	nodes := buildMesh(t, 2, TCPOptions{})
	defer nodes[0].Close()
	if err := nodes[1].Close(); err != nil { // rank 1 "dies"
		t.Fatal(err)
	}
	start := time.Now()
	_, _, err := nodes[0].Recv(1, 7) // no deadline: must resolve via peerLost
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("recv from dead peer: %v, want ErrClosed", err)
	}
	var te *TransportError
	if !errors.As(err, &te) || te.Op != "recv" || te.Peer != 1 {
		t.Fatalf("got %v, want recv TransportError naming peer 1", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("death notice took %v", e)
	}
}

// TestTCPOpTimeout: the per-op deadline bounds a receive from a silent
// (but alive) peer.
func TestTCPOpTimeout(t *testing.T) {
	nodes := buildMesh(t, 2, TCPOptions{OpTimeout: 80 * time.Millisecond})
	defer nodes[0].Close()
	defer nodes[1].Close()
	start := time.Now()
	_, _, err := nodes[0].Recv(1, 9)
	var te *TransportError
	if !errors.As(err, &te) || !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want TransportError wrapping ErrTimeout", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("timed-out recv took %v", e)
	}
	// The deadline must not have poisoned the connection: traffic flows.
	if err := nodes[1].Send(0, 9, []complex128{3}); err != nil {
		t.Fatal(err)
	}
	got, _, err := nodes[0].Recv(1, 9)
	if err != nil || got[0] != 3 {
		t.Fatalf("post-timeout exchange: %v %v", got, err)
	}
}

// buildMesh forms a TCP mesh and returns every node.
func buildMesh(t testing.TB, size int, opts TCPOptions) []*TCPNode {
	t.Helper()
	listeners := make([]net.Listener, size)
	addrs := make([]string, size)
	for i := range listeners {
		ln, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*TCPNode, size)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	wg.Add(size)
	for r := 0; r < size; r++ {
		go func(r int) {
			defer wg.Done()
			n, err := ConnectTCPOpts(r, size, listeners[r], addrs, opts)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			nodes[r] = n
		}(r)
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	return nodes
}
