package mpi

import (
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
)

// benchAllToAll measures one all-to-all of blockElems smooth complex values
// per pair across an in-process world.
func benchAllToAll(b *testing.B, size, blockElems int) {
	w, err := NewWorld(size)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	send := make([][][]complex128, size)
	for r := 0; r < size; r++ {
		send[r] = make([][]complex128, size)
		for q := 0; q < size; q++ {
			send[r][q] = make([]complex128, blockElems)
			for i := range send[r][q] {
				s, c := math.Sincos(2 * math.Pi * float64(3*i+q) / float64(blockElems))
				send[r][q][i] = complex(c, 0.5*s)
			}
		}
	}
	b.SetBytes(int64(size) * int64(size) * int64(blockElems) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		wg.Add(size)
		for r := 0; r < size; r++ {
			go func(r int) {
				defer wg.Done()
				if _, err := AllToAll(w.Comm(r), send[r]); err != nil {
					b.Error(err)
				}
			}(r)
		}
		wg.Wait()
	}
}

func BenchmarkAllToAllInProc(b *testing.B) {
	for _, size := range []int{4, 8} {
		for _, elems := range []int{64, 4096} {
			b.Run(fmt.Sprintf("ranks=%d/block=%d", size, elems), func(b *testing.B) {
				benchAllToAll(b, size, elems)
			})
		}
	}
}

func BenchmarkAllToAllTCP(b *testing.B) {
	const size, elems = 4, 4096
	listeners := make([]net.Listener, size)
	addrs := make([]string, size)
	for i := range listeners {
		ln, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*TCPNode, size)
	var wg sync.WaitGroup
	wg.Add(size)
	for r := 0; r < size; r++ {
		go func(r int) {
			defer wg.Done()
			n, err := ConnectTCP(r, size, listeners[r], addrs)
			if err != nil {
				b.Error(err)
				return
			}
			nodes[r] = n
		}(r)
	}
	wg.Wait()
	defer func() {
		for _, n := range nodes {
			if n != nil {
				n.Close()
			}
		}
	}()
	send := make([][]complex128, size)
	for q := range send {
		send[q] = make([]complex128, elems)
	}
	b.SetBytes(int64(size) * int64(size) * int64(elems) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		wg.Add(size)
		for r := 0; r < size; r++ {
			go func(r int) {
				defer wg.Done()
				if _, err := AllToAll(nodes[r], send); err != nil {
					b.Error(err)
				}
			}(r)
		}
		wg.Wait()
	}
}

// BenchmarkAllToAllTCPBlocks prices one all-to-all at the block size of
// soiperf's dist_tcp_458k (2 ranks, 32768 elements per block): AllToAll
// returns fresh buffers, AllToAllInto receives into the caller's.
func BenchmarkAllToAllTCPBlocks(b *testing.B) {
	const size, elems = 2, 32768
	for _, into := range []bool{false, true} {
		name := "AllToAll"
		if into {
			name = "AllToAllInto"
		}
		b.Run(name, func(b *testing.B) {
			nodes := buildMesh(b, size, TCPOptions{})
			defer func() {
				for _, n := range nodes {
					n.Close()
				}
			}()
			send := make([][]complex128, size)
			recv := make([][][]complex128, size)
			for q := range send {
				send[q] = make([]complex128, elems)
				recv[q] = make([][]complex128, size)
				for r := range recv[q] {
					recv[q][r] = make([]complex128, elems)
				}
			}
			b.ReportAllocs()
			b.SetBytes(int64(size) * int64(size-1) * int64(elems) * 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				wg.Add(size)
				for r := 0; r < size; r++ {
					go func(r int) {
						defer wg.Done()
						var err error
						if into {
							err = AllToAllInto(nodes[r], send, recv[r])
						} else {
							_, err = AllToAll(nodes[r], send)
						}
						if err != nil {
							b.Error(err)
						}
					}(r)
				}
				wg.Wait()
			}
		})
	}
}
