package mpi

import (
	"bytes"
	"errors"
	"io"
	"net"
	"slices"
	"testing"
	"time"
)

// The lifecycle of a posted receive: SendRecvInto posts its receive before
// it sends, and on every way out it must return its typed error within
// twice the op timeout and leave no transport goroutine writing the buffer.
// The buffer is sentinel-filled; it must read the same 50 ms after the
// return as at the return, and, where no payload byte reached the rank,
// still hold only the sentinel (TestIntoWrongLengthSlot's rule).

const (
	postedOpTimeout = 300 * time.Millisecond
	postedSentinel  = complex(-7, -7)
	postedTag       = 7
)

// postedExit is how one SendRecvInto came back.
type postedExit struct {
	err     error
	elapsed time.Duration
	at      []complex128 // the buffer as the call returned
}

// postAndSend runs SendRecvInto on rank 0 of c's world, to and from rank 1,
// into buf, and reports how it returned.
func postAndSend(c Comm, x, buf []complex128) <-chan postedExit {
	done := make(chan postedExit, 1)
	go func() {
		start := time.Now()
		err := SendRecvInto(c, 1, x, 1, postedTag, buf)
		done <- postedExit{err, time.Since(start), slices.Clone(buf)}
	}()
	return done
}

func sentinelBuf(n int) []complex128 {
	b := make([]complex128, n)
	for i := range b {
		b[i] = postedSentinel
	}
	return b
}

// checkExit requires the exit's error to satisfy is, to be a
// *TransportError naming peer 1 when op is non-empty, and to come within
// twice the op timeout; then it reads buf 50 ms later.
func checkExit(t *testing.T, ex postedExit, buf []complex128, is func(error) bool, op string, untouched bool) {
	t.Helper()
	if ex.err == nil || !is(ex.err) {
		t.Fatalf("returned %v", ex.err)
	}
	var te *TransportError
	if op != "" && (!errors.As(ex.err, &te) || te.Op != op || te.Peer != 1) {
		t.Errorf("error %v is not a *TransportError of a %s with peer 1", ex.err, op)
	}
	if ex.elapsed > 2*postedOpTimeout {
		t.Errorf("returned after %v, op timeout %v", ex.elapsed, postedOpTimeout)
	}
	time.Sleep(50 * time.Millisecond)
	if err := sameBits(buf, ex.at); err != nil {
		t.Errorf("buffer written after the return: %v", err)
	}
	if untouched && !slices.Equal(ex.at, sentinelBuf(len(buf))) {
		t.Errorf("buffer written though no payload reached the rank")
	}
}

func isErr(target error) func(error) bool {
	return func(err error) bool { return errors.Is(err, target) }
}

func isSizeError(err error) bool {
	var se *SizeError
	return errors.As(err, &se)
}

// rawPeerNode forms a two-rank TCP mesh whose rank 1 is a raw connection
// the test writes frames, and parts of frames, to.
func rawPeerNode(t *testing.T) (*TCPNode, net.Conn) {
	t.Helper()
	ln, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peer, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	if _, err := peer.Write([]byte{0, 0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	node, err := ConnectTCPOpts(0, 2, ln, []string{ln.Addr().String(), ""}, TCPOptions{OpTimeout: postedOpTimeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	return node, peer
}

// frameImage is the wire image of one message from rank 1.
func frameImage(t *testing.T, tag int, data []complex128) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := writeFrame(&b, 1, tag, data); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// readSend consumes the one-element frame rank 0's SendRecvInto sends the
// raw peer; its receive is posted by then.
func readSend(t *testing.T, peer net.Conn) {
	t.Helper()
	if _, err := io.ReadFull(peer, make([]byte, frameHeaderLen+16)); err != nil {
		t.Fatal(err)
	}
}

func TestPostedReceiveLifecycleTCP(t *testing.T) {
	const n = 4096 // 64 KiB: a posted read past the read buffer
	payload := specialValues(n)
	one := []complex128{1}

	t.Run("deadline mid-frame", func(t *testing.T) {
		node, peer := rawPeerNode(t)
		buf := sentinelBuf(n)
		done := postAndSend(node, one, buf)
		readSend(t, peer)
		frame := frameImage(t, postedTag, payload)
		half := frameHeaderLen + 16*n/2
		if _, err := peer.Write(frame[:half]); err != nil {
			t.Fatal(err)
		}
		ex := <-done
		checkExit(t, ex, buf, isErr(ErrTimeout), "recv", false)
		if err := sameBits(ex.at[:n/2], payload[:n/2]); err != nil {
			t.Errorf("the first half of the frame did not arrive in the posted buffer: %v", err)
		}
		// The rest of the frame is discarded and the stream stays in step.
		if _, err := peer.Write(append(frame[half:], frameImage(t, postedTag+1, one)...)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond)
		if err := sameBits(buf, ex.at); err != nil {
			t.Errorf("buffer written by the rest of the frame: %v", err)
		}
		if got, err := node.Recv(1, postedTag+1); err != nil || len(got) != 1 || got[0] != 1 {
			t.Errorf("next frame: %v, %v", got, err)
		}
	})

	t.Run("connection closes mid-payload", func(t *testing.T) {
		node, peer := rawPeerNode(t)
		buf := sentinelBuf(n)
		done := postAndSend(node, one, buf)
		readSend(t, peer)
		if _, err := peer.Write(frameImage(t, postedTag, payload)[:frameHeaderLen+16*n/2]); err != nil {
			t.Fatal(err)
		}
		time.Sleep(postedOpTimeout / 4)
		peer.Close()
		checkExit(t, <-done, buf, isErr(ErrClosed), "recv", false)
	})

	t.Run("close with the receive pending", func(t *testing.T) {
		node, peer := rawPeerNode(t)
		buf := sentinelBuf(n)
		done := postAndSend(node, one, buf)
		readSend(t, peer)
		time.Sleep(postedOpTimeout / 4)
		node.Close()
		checkExit(t, <-done, buf, isErr(ErrClosed), "", true)
	})

	t.Run("wrong length", func(t *testing.T) {
		node, peer := rawPeerNode(t)
		buf := sentinelBuf(n - 1)
		done := postAndSend(node, one, buf)
		readSend(t, peer)
		if _, err := peer.Write(append(frameImage(t, postedTag, payload), frameImage(t, postedTag+1, one)...)); err != nil {
			t.Fatal(err)
		}
		checkExit(t, <-done, buf, isSizeError, "recv", true)
		if got, err := node.Recv(1, postedTag+1); err != nil || len(got) != 1 || got[0] != 1 {
			t.Errorf("frame after the discarded one: %v, %v", got, err)
		}
	})

	t.Run("send fails after the post", func(t *testing.T) {
		node, peer := rawPeerNode(t)
		buf := sentinelBuf(n)
		// The peer reads nothing: a 16 MiB frame outlasts the socket
		// buffers, and the write's deadline fails the send.
		done := postAndSend(node, make([]complex128, 1<<20), buf)
		checkExit(t, <-done, buf, isErr(ErrTimeout), "send", true)
		// The withdrawn post takes nothing: the message waits for a Recv.
		if _, err := peer.Write(frameImage(t, postedTag, payload)); err != nil {
			t.Fatal(err)
		}
		got, err := node.Recv(1, postedTag)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameBits(got, payload); err != nil {
			t.Error(err)
		}
		if !slices.Equal(buf, sentinelBuf(n)) {
			t.Error("the message reached the withdrawn post's buffer")
		}
	})
}

func TestPostedReceiveLifecycleInProcess(t *testing.T) {
	const n = 64
	payload := specialValues(n)
	one := []complex128{1}
	world := func(t *testing.T) *World {
		w, err := NewWorld(2)
		if err != nil {
			t.Fatal(err)
		}
		w.SetOpTimeout(postedOpTimeout)
		t.Cleanup(w.Close)
		return w
	}
	// lateSend is rank 1's message after the exit, which must not reach buf.
	lateSend := func(t *testing.T, w *World, buf []complex128) {
		t.Helper()
		_ = w.Comm(1).Send(0, postedTag, payload[:len(buf)])
		time.Sleep(50 * time.Millisecond)
		if !slices.Equal(buf, sentinelBuf(len(buf))) {
			t.Error("a message sent after the exit reached the buffer")
		}
	}

	t.Run("deadline", func(t *testing.T) {
		w := world(t)
		buf := sentinelBuf(n)
		checkExit(t, <-postAndSend(w.Comm(0), one, buf), buf, isErr(ErrTimeout), "recv", true)
		lateSend(t, w, buf)
	})

	t.Run("abort with the receive pending", func(t *testing.T) {
		w := world(t)
		buf := sentinelBuf(n)
		done := postAndSend(w.Comm(0), one, buf)
		time.Sleep(postedOpTimeout / 4)
		w.Abort(errors.New("rank 1 failed"))
		checkExit(t, <-done, buf, isErr(ErrAborted), "", true)
		lateSend(t, w, buf)
	})

	t.Run("close with the receive pending", func(t *testing.T) {
		w := world(t)
		buf := sentinelBuf(n)
		done := postAndSend(w.Comm(0), one, buf)
		time.Sleep(postedOpTimeout / 4)
		w.Comm(0).Close()
		checkExit(t, <-done, buf, isErr(ErrClosed), "", true)
		lateSend(t, w, buf)
	})

	t.Run("wrong length", func(t *testing.T) {
		w := world(t)
		buf := sentinelBuf(n - 1)
		done := postAndSend(w.Comm(0), one, buf)
		if _, err := w.Comm(1).Recv(0, postedTag); err != nil {
			t.Fatal(err)
		}
		if err := w.Comm(1).Send(0, postedTag, payload); err != nil {
			t.Fatal(err)
		}
		checkExit(t, <-done, buf, isSizeError, "recv", true)
	})

	t.Run("send fails after the post", func(t *testing.T) {
		w := world(t)
		w.Comm(1).Close()
		buf := sentinelBuf(n)
		checkExit(t, <-postAndSend(w.Comm(0), one, buf), buf, isErr(ErrClosed), "", true)
		lateSend(t, w, buf)
	})

	// AllToAllsInto posts every exchange's receives first; a failed send
	// must withdraw all of them, the later exchanges' too.
	t.Run("all-to-alls: send fails after the posts", func(t *testing.T) {
		w := world(t)
		w.Comm(1).Close()
		bufs := [][]complex128{sentinelBuf(n), sentinelBuf(n)}
		send := [][][]complex128{{nil, payload}, {nil, payload}}
		recv := [][][]complex128{{nil, bufs[0]}, {nil, bufs[1]}}
		if err := AllToAllsInto(w.Comm(0), send, recv, nil, nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("returned %v", err)
		}
		for range bufs {
			_ = w.Comm(1).Send(0, tagAllToAll+1, payload)
		}
		time.Sleep(50 * time.Millisecond)
		for g, b := range bufs {
			if !slices.Equal(b, sentinelBuf(n)) {
				t.Errorf("a message sent after the return reached exchange %d's buffer", g)
			}
		}
	})
}
