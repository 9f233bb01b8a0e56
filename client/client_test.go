package client

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"soifft/internal/wire"
)

func TestParseStats(t *testing.T) {
	m := ParseStats("soifftd_completed_total 42\nsoifftd_mean_batch_size 3.5\n\nmalformed\nbad_value x\n")
	if m["soifftd_completed_total"] != 42 {
		t.Errorf("completed_total = %v", m["soifftd_completed_total"])
	}
	if m["soifftd_mean_batch_size"] != 3.5 {
		t.Errorf("mean_batch_size = %v", m["soifftd_mean_batch_size"])
	}
	if len(m) != 2 {
		t.Errorf("parsed %d entries, want 2: %v", len(m), m)
	}
}

func TestTransformArgChecks(t *testing.T) {
	// Argument validation happens before any I/O, so a nil-conn client is
	// fine for these.
	c := &Client{}
	ctx := context.Background()
	if err := c.Batch(ctx, make([]complex128, 8), make([]complex128, 7), 1, false); err == nil ||
		!strings.Contains(err.Error(), "len(dst)") {
		t.Errorf("mismatched lengths: %v", err)
	}
	if err := c.Batch(ctx, make([]complex128, 8), make([]complex128, 8), 3, false); err == nil ||
		!strings.Contains(err.Error(), "count") {
		t.Errorf("non-dividing count: %v", err)
	}
}

// TestTransformPeerStopsReading pins the no-hang write path: a peer that
// accepts the connection and then never reads lets the socket buffers fill
// mid-payload, and without a write deadline the client would wedge forever
// inside wire.WriteVector. With the I/O timeout armed, Transform must
// return a timeout error promptly even though the context has no deadline.
func TestTransformPeerStopsReading(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c // hold the conn open; never read from it
		}
	}()

	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetIOTimeout(200 * time.Millisecond)

	// 8 MiB of payload: far beyond any loopback socket buffering, so the
	// frame write must block in the kernel until the deadline fires.
	n := 1 << 19
	src := make([]complex128, n)
	dst := make([]complex128, n)
	start := time.Now()
	err = cl.Forward(context.Background(), dst, src)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Forward against a peer that never reads returned nil, want a timeout error")
	}
	if elapsed > 10*time.Second {
		t.Fatalf("Forward took %v to fail; the write deadline did not bound the blocked write (err: %v)", elapsed, err)
	}
	(<-accepted).Close()
}

func TestAlgConstantsMatchWire(t *testing.T) {
	if Auto != wire.AlgAuto || Exact != wire.AlgExact || SOI != wire.AlgSOI {
		t.Fatal("re-exported algorithm selectors diverged from wire")
	}
}
