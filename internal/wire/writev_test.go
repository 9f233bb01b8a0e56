//go:build linux

package wire

import (
	"errors"
	"net"
	"os"
	"sync"
	"syscall"
	"testing"

	"soifft/internal/codec"
	"soifft/internal/cvec"
)

// packetPair returns the writing end of a SOCK_SEQPACKET socket pair and a
// function that closes it and returns the lengths of the records the other
// end received. Every write(2) or writev(2) on such a socket arrives as one
// record, so the records count the writes a Writer made.
func packetPair(t *testing.T) (net.Conn, func() []int) {
	t.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_SEQPACKET|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Skipf("no SOCK_SEQPACKET socket pair: %v", err)
	}
	conns := make([]net.Conn, 2)
	for i, fd := range fds {
		f := os.NewFile(uintptr(fd), "seqpacket")
		conns[i], err = net.FileConn(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	w, r := conns[0], conns[1]
	// A record must fit the send buffer whole: room for a 28 672-point
	// frame (459 KB) where the host's limit allows it.
	if err := w.(*net.UnixConn).SetWriteBuffer(1 << 20); err != nil {
		t.Fatal(err)
	}
	var (
		wg      sync.WaitGroup
		records []int
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 2<<20)
		for {
			n, err := r.Read(buf)
			if err != nil {
				return
			}
			records = append(records, n)
		}
	}()
	done := func() []int {
		w.Close()
		wg.Wait()
		r.Close()
		return records
	}
	t.Cleanup(func() { done() })
	return w, done
}

// TestWriterOneWritePerLargeFrame is the write-count gate of Writer: a
// 28 672-point frame — a client's identity request, a server's raw
// fallback, an encoded payload larger than the buffer — leaves in exactly
// one write of header and payload, while frames that fit the buffer are
// still gathered into one write at Flush, and a large frame behind
// buffered ones costs one write for those and one for itself.
func TestWriterOneWritePerLargeFrame(t *testing.T) {
	const n, small = 28672, 1024
	kinds := resultKinds(t, n)
	dp := codec.MustFor(codec.DeltaPlane, 0)
	large := HeaderLen + n*BytesPerElem
	smallFrame := HeaderLen + small*BytesPerElem
	vectorFrame := func(w *Writer, x []complex128) error {
		h := Header{Type: TForward, Count: 1, N: uint64(len(x)), PayloadLen: uint64(len(x)) * BytesPerElem}
		return w.WriteVectorFrame(&h, x)
	}
	for _, tc := range []struct {
		name  string
		write func(w *Writer) error
		want  []int // record lengths; 0 = any length
	}{
		{"identity request", func(w *Writer) error { return vectorFrame(w, kinds["noise"]) }, []int{large}},
		{"raw fallback", func(w *Writer) error {
			_, err := WriteResultCodec(w, 0, 1, 1, kinds["spectrum"], dp)
			return err
		}, []int{large}},
		{"encoded", func(w *Writer) error {
			_, err := WriteResultCodec(w, 0, 1, 1, kinds["inverse"], dp)
			return err
		}, []int{0}},
		{"small burst", func(w *Writer) error {
			for range 3 {
				if err := vectorFrame(w, kinds["noise"][:small]); err != nil {
					return err
				}
			}
			return nil
		}, []int{3 * smallFrame}},
		{"large behind small", func(w *Writer) error {
			if err := vectorFrame(w, kinds["noise"][:small]); err != nil {
				return err
			}
			return vectorFrame(w, kinds["noise"])
		}, []int{smallFrame, large}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !cvec.NativeImage {
				t.Skip("memory holds another byte order: the payload converts through the buffer")
			}
			conn, records := packetPair(t)
			w := NewWriter(conn, 64<<10)
			err := tc.write(w)
			if err == nil {
				err = w.Flush()
			}
			if errors.Is(err, syscall.EMSGSIZE) {
				t.Skipf("the host's socket buffer limit cannot hold a %d-byte record: %v", large, err)
			}
			if err != nil {
				t.Fatal(err)
			}
			got := records()
			ok := len(got) == len(tc.want)
			for i := 0; ok && i < len(got); i++ {
				ok = tc.want[i] == 0 || got[i] == tc.want[i]
			}
			if !ok {
				t.Errorf("writes of %v bytes, want %v", got, tc.want)
			}
		})
	}
}

// TestWriterLargeFrameNoCopy: the one write of a large frame hands the
// connection the payload's own memory, for a request's identity payload
// and for a response that fell back to raw — the buffer copies none of it.
func TestWriterLargeFrameNoCopy(t *testing.T) {
	if !cvec.NativeImage {
		t.Skip("memory holds another byte order: payloads convert through a scratch")
	}
	const n = 28672
	x := resultKinds(t, n)["spectrum"]
	for _, tc := range []struct {
		name  string
		write func(w *Writer) error
	}{
		{"identity request", func(w *Writer) error {
			h := Header{Type: TForward, Count: 1, N: n, PayloadLen: n * BytesPerElem}
			return w.WriteVectorFrame(&h, x)
		}},
		{"raw fallback", func(w *Writer) error {
			_, err := WriteResultCodec(w, 0, 1, 1, x, codec.MustFor(codec.DeltaPlane, 0))
			return err
		}},
	} {
		s := &spy{vec: x}
		w := NewWriter(s, 64<<10)
		err := tc.write(w)
		if err == nil {
			err = w.Flush()
		}
		if err != nil {
			t.Fatal(err)
		}
		if s.aliased != n*BytesPerElem || s.Len() != HeaderLen+n*BytesPerElem {
			t.Errorf("%s: %d of %d payload bytes written from the vector itself (frame %d bytes)", tc.name, s.aliased, n*BytesPerElem, s.Len())
		}
	}
}
