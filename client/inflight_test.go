package client

import (
	"context"
	"errors"
	"net"
	"testing"

	"soifft/internal/wire"
)

// readSignal reports on reads each time the client's demultiplexer asks
// its connection for more bytes, so a test knows the bytes it last wrote
// have been consumed and acted on.
type readSignal struct {
	net.Conn
	reads chan<- struct{}
}

func (c readSignal) Read(p []byte) (int, error) {
	c.reads <- struct{}{}
	return c.Conn.Read(p)
}

// fakeServer wires a Client to the test over net.Pipe. It returns the
// client, the server end, and the demultiplexer's read signal.
func fakeServer(t *testing.T) (*Client, net.Conn, <-chan struct{}) {
	cs, ss := net.Pipe()
	reads := make(chan struct{}, 8)
	t.Cleanup(func() { ss.Close() })
	return New(readSignal{cs, reads}), ss, reads
}

// readRequest consumes one request frame on the server end.
func readRequest(t *testing.T, ss net.Conn) wire.Header {
	t.Helper()
	h, err := wire.ReadHeader(ss)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.DiscardPayload(ss, h.PayloadLen); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestCancelAsResponseArrives: the demultiplexer claims a call when its
// response header arrives, so a caller cancelled between header and
// payload is completed by a goroutine that no longer has a receiver. The
// completion must not wait for one: after the payload the demultiplexer is
// back at its idle read, and Close returns.
func TestCancelAsResponseArrives(t *testing.T) {
	cl, ss, reads := fakeServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- cl.Forward(ctx, make([]complex128, 8), make([]complex128, 8)) }()
	req := readRequest(t, ss)
	<-reads // the idle read the header will satisfy
	resp := wire.Header{Type: wire.TResult, ReqID: req.ReqID, Count: 1, N: 8, PayloadLen: 8 * wire.BytesPerElem}
	if err := wire.WriteHeader(ss, &resp); err != nil {
		t.Fatal(err)
	}
	<-reads // header parsed and the call claimed; now reading the payload
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Forward returned %v, want context.Canceled", err)
	}
	if err := wire.WriteVector(ss, make([]complex128, 8)); err != nil {
		t.Fatal(err)
	}
	<-reads // back at the idle read: the abandoned completion did not block
	cl.Close()
}

// TestConnectionDiesMidCall: a connection lost with a call in flight fails
// that call with ErrClosed, fails later calls the same way, and Close
// returns.
func TestConnectionDiesMidCall(t *testing.T) {
	cl, ss, _ := fakeServer(t)
	errc := make(chan error, 1)
	go func() { errc <- cl.Forward(context.Background(), make([]complex128, 8), make([]complex128, 8)) }()
	readRequest(t, ss)
	ss.Close()
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("in-flight Forward returned %v, want ErrClosed", err)
	}
	if err := cl.Forward(context.Background(), make([]complex128, 8), make([]complex128, 8)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Forward after the connection died returned %v, want ErrClosed", err)
	}
	cl.Close()
}
