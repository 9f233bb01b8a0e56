package mpi

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"soifft/internal/ref"
)

func TestSendRecvBasic(t *testing.T) {
	err := Run(2, func(c Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, []complex128{1 + 2i, 3})
		}
		data, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if len(data) != 2 || data[0] != 1+2i || data[1] != 3 {
			return fmt.Errorf("bad message: %v", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	w, _ := NewWorld(2)
	defer w.Close()
	c0, c1 := w.Comm(0), w.Comm(1)
	buf := []complex128{1, 2, 3}
	if err := c0.Send(1, 0, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = -99 // mutate after send: receiver must still see the original
	data, err := c1.Recv(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 1 {
		t.Fatalf("send did not copy: got %v", data[0])
	}
}

func TestRecvMatchesTagAndSource(t *testing.T) {
	w, _ := NewWorld(3)
	defer w.Close()
	c2 := w.Comm(2)
	// Deliver out of order: tag 5 after tag 9, from different sources.
	if err := w.Comm(0).Send(2, 9, []complex128{9}); err != nil {
		t.Fatal(err)
	}
	if err := w.Comm(1).Send(2, 5, []complex128{5}); err != nil {
		t.Fatal(err)
	}
	data, err := c2.Recv(1, 5)
	if err != nil || data[0] != 5 {
		t.Fatalf("tag-5 recv: %v data=%v", err, data)
	}
	data, err = c2.Recv(0, 9)
	if err != nil || data[0] != 9 {
		t.Fatalf("tag-9 recv: %v data=%v", err, data)
	}
}

func TestRecvBlocksUntilSend(t *testing.T) {
	w, _ := NewWorld(2)
	defer w.Close()
	done := make(chan []complex128)
	go func() {
		data, _ := w.Comm(1).Recv(0, 3)
		done <- data
	}()
	if err := w.Comm(0).Send(1, 3, []complex128{42}); err != nil {
		t.Fatal(err)
	}
	if data := <-done; data[0] != 42 {
		t.Fatalf("got %v", data)
	}
}

func TestClosedWorldErrors(t *testing.T) {
	w, _ := NewWorld(2)
	w.Close()
	if err := w.Comm(0).Send(1, 0, nil); err != ErrClosed {
		t.Fatalf("send after close: %v", err)
	}
	if _, err := w.Comm(1).Recv(0, 0); err != ErrClosed {
		t.Fatalf("recv after close: %v", err)
	}
}

// TestInvalidArgs: both transports reject an out-of-range rank and a
// negative tag, a send to the rank itself included. The cases run in order
// and stop at the first miss, before the receive that would block on a
// transport that accepted rank 9.
func TestInvalidArgs(t *testing.T) {
	check := func(c Comm) error {
		peer := 1 - c.Rank()
		if err := c.Send(5, 0, nil); err == nil {
			return fmt.Errorf("rank %d: send to rank 5 accepted", c.Rank())
		}
		if err := c.Send(peer, -3, nil); err == nil {
			return fmt.Errorf("rank %d: negative tag to rank %d accepted", c.Rank(), peer)
		}
		if err := c.Send(c.Rank(), -1, nil); err == nil {
			return fmt.Errorf("rank %d: negative tag to itself accepted", c.Rank())
		}
		if _, err := c.Recv(9, 0); err == nil {
			return fmt.Errorf("rank %d: recv from rank 9 accepted", c.Rank())
		}
		return nil
	}
	t.Run("inproc", func(t *testing.T) {
		if err := Run(2, check); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("tcp", func(t *testing.T) { tcpWorld(t, 2, check) })
	if _, err := NewWorld(0); err == nil {
		t.Error("world of size 0 should fail")
	}
}

func testAllToAll(t *testing.T, size int) {
	t.Helper()
	err := Run(size, func(c Comm) error {
		r := c.Rank()
		send := make([][]complex128, size)
		for i := range send {
			// Unique payload per (sender, receiver) pair; varying lengths.
			send[i] = make([]complex128, 1+(r+i)%3)
			for k := range send[i] {
				send[i][k] = complex(float64(r*100+i), float64(k))
			}
		}
		recv, err := AllToAll(c, send)
		if err != nil {
			return err
		}
		for i := range recv {
			want := 1 + (i+r)%3
			if len(recv[i]) != want {
				return fmt.Errorf("rank %d from %d: %d elems, want %d", r, i, len(recv[i]), want)
			}
			if recv[i][0] != complex(float64(i*100+r), 0) {
				return fmt.Errorf("rank %d from %d: payload %v", r, i, recv[i][0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllToAll(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 7, 8, 16} {
		testAllToAll(t, size)
	}
}

func TestBarrier(t *testing.T) {
	for _, size := range []int{2, 3, 8} {
		var mu sync.Mutex
		arrived := 0
		err := Run(size, func(c Comm) error {
			mu.Lock()
			arrived++
			mu.Unlock()
			if err := Barrier(c); err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			if arrived != size {
				return fmt.Errorf("rank %d passed barrier with %d/%d arrived", c.Rank(), arrived, size)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// tcpWorld spins up a full TCP mesh on loopback and runs fn per rank.
func tcpWorld(t *testing.T, size int, fn func(Comm) error) {
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
	var wg sync.WaitGroup
	errs := make(chan error, size)
	wg.Add(size)
	for r := 0; r < size; r++ {
		go func(r int) {
			defer wg.Done()
			node, err := ConnectTCP(r, size, listeners[r], addrs)
			if err != nil {
				errs <- err
				return
			}
			defer node.Close()
			errs <- fn(node)
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestTCPSendRecv(t *testing.T) {
	tcpWorld(t, 3, func(c Comm) error {
		next := (c.Rank() + 1) % 3
		prev := (c.Rank() + 2) % 3
		payload := ref.RandomVector(100, int64(c.Rank()))
		if err := c.Send(next, 1, payload); err != nil {
			return err
		}
		got, err := c.Recv(prev, 1)
		if err != nil {
			return err
		}
		want := ref.RandomVector(100, int64(prev))
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("rank %d: wire corruption at %d (src %d)", c.Rank(), i, prev)
			}
		}
		return nil
	})
}

func TestTCPSelfSend(t *testing.T) {
	tcpWorld(t, 2, func(c Comm) error {
		if err := c.Send(c.Rank(), 4, []complex128{7i}); err != nil {
			return err
		}
		d, err := c.Recv(c.Rank(), 4)
		if err != nil || d[0] != 7i {
			return fmt.Errorf("self-send: %v %v", d, err)
		}
		return nil
	})
}

func TestTCPCollectives(t *testing.T) {
	tcpWorld(t, 4, func(c Comm) error {
		send := make([][]complex128, 4)
		for i := range send {
			send[i] = []complex128{complex(float64(c.Rank()*10+i), 0)}
		}
		recv, err := AllToAll(c, send)
		if err != nil {
			return err
		}
		for i := range recv {
			if recv[i][0] != complex(float64(i*10+c.Rank()), 0) {
				return fmt.Errorf("alltoall mismatch")
			}
		}
		return Barrier(c)
	})
}

func TestTCPCloseUnblocksRecv(t *testing.T) {
	ln0, _ := ListenTCP("127.0.0.1:0")
	ln1, _ := ListenTCP("127.0.0.1:0")
	addrs := []string{ln0.Addr().String(), ln1.Addr().String()}
	var wg sync.WaitGroup
	nodes := make([]*TCPNode, 2)
	wg.Add(2)
	for r := 0; r < 2; r++ {
		go func(r int) {
			defer wg.Done()
			ln := []net.Listener{ln0, ln1}[r]
			n, err := ConnectTCP(r, 2, ln, addrs)
			if err == nil {
				nodes[r] = n
			}
		}(r)
	}
	wg.Wait()
	if nodes[0] == nil || nodes[1] == nil {
		t.Fatal("mesh failed")
	}
	done := make(chan error, 1)
	go func() {
		_, err := nodes[1].Recv(0, 9)
		done <- err
	}()
	nodes[1].Close()
	if err := <-done; err != ErrClosed {
		t.Fatalf("recv after close: %v", err)
	}
	nodes[0].Close()
}

func TestTCPRejectsBadRank(t *testing.T) {
	ln, _ := ListenTCP("127.0.0.1:0")
	if _, err := ConnectTCP(-1, 2, ln, nil); err == nil {
		t.Error("negative rank accepted")
	}
	ln.Close()
}
