package mpi

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"testing/iotest"
	"time"
)

// intoBlock is the block rank src sends rank dst in the equivalence tests:
// its length depends on both ranks (zero for some pairs), its values on
// the pair and the position.
func intoBlock(src, dst int) []complex128 {
	b := make([]complex128, (src*7+dst*3)%6*11)
	for i := range b {
		b[i] = complex(float64(src*1000+dst), float64(i))
	}
	return b
}

// checkIntoEquivalence runs AllToAll and then AllToAllInto on c with the
// same blocks and requires identical results, element for element.
func checkIntoEquivalence(c Comm) error {
	p, r := c.Size(), c.Rank()
	send := make([][]complex128, p)
	into := make([][]complex128, p)
	for q := range send {
		send[q] = intoBlock(r, q)
		into[q] = make([]complex128, len(intoBlock(q, r)))
	}
	want, err := AllToAll(c, send)
	if err != nil {
		return fmt.Errorf("AllToAll: %w", err)
	}
	if err := AllToAllInto(c, send, into); err != nil {
		return fmt.Errorf("AllToAllInto: %w", err)
	}
	for q := range want {
		if len(want[q]) != len(into[q]) {
			return fmt.Errorf("rank %d block %d: AllToAll %d elements, AllToAllInto %d", r, q, len(want[q]), len(into[q]))
		}
		for i := range want[q] {
			if want[q][i] != into[q][i] || want[q][i] != intoBlock(q, r)[i] {
				return fmt.Errorf("rank %d block %d[%d]: AllToAll %v, AllToAllInto %v", r, q, i, want[q][i], into[q][i])
			}
		}
	}
	return nil
}

// TestAllToAllIntoMatchesAllToAll: world sizes 1, 2, 4, 8 take the XOR
// pairing, 3 the ring pairing; every size runs bare (recycling transport)
// and behind opaque (the Comm fallback every middleware takes, the fault
// injector of internal/faultcomm among them) in-process, and bare over TCP.
// The fallback leg keeps the name "codec" from when the mesh codec was the
// middleware that ran it, so its subtests keep their names.
func TestAllToAllIntoMatchesAllToAll(t *testing.T) {
	wraps := []struct {
		name string
		wrap func(Comm) Comm
	}{
		{"bare", func(c Comm) Comm { return c }},
		{"codec", func(c Comm) Comm { return opaque{c} }},
	}
	for _, size := range []int{1, 2, 3, 4, 8} {
		for _, w := range wraps {
			t.Run(fmt.Sprintf("inproc/%s/ranks=%d", w.name, size), func(t *testing.T) {
				err := Run(size, func(c Comm) error {
					return checkIntoEquivalence(w.wrap(c))
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
		t.Run(fmt.Sprintf("tcp/bare/ranks=%d", size), func(t *testing.T) {
			tcpWorld(t, size, checkIntoEquivalence)
		})
	}
}

// TestIntoWrongLengthSlot: a payload that does not fill the receive slot
// exactly is a *TransportError naming the peer and wrapping a *SizeError,
// on the recycling transport and through the Comm fallback alike, and
// neither the slot nor the memory after it is written.
func TestIntoWrongLengthSlot(t *testing.T) {
	const sentinel = complex(-7, -7)
	for _, fallback := range []bool{false, true} {
		for _, slotLen := range []int{3, 5} { // payload is 4: one too long, one too short
			err := Run(2, func(c Comm) error {
				if fallback {
					c = opaque{c}
				}
				payload := []complex128{1, 2, 3, 4}
				if c.Rank() == 1 {
					return SendRecvInto(c, 0, payload, 0, 9, make([]complex128, len(payload)))
				}
				backing := make([]complex128, 8)
				for i := range backing {
					backing[i] = sentinel
				}
				err := SendRecvInto(c, 1, payload, 1, 9, backing[:slotLen])
				var te *TransportError
				var se *SizeError
				if !errors.As(err, &te) || !errors.As(err, &se) {
					return fmt.Errorf("error %v is not a *TransportError wrapping a *SizeError", err)
				}
				if te.Peer != 1 || te.Tag != 9 || se.Got != len(payload) || se.Want != slotLen {
					return fmt.Errorf("got %+v / %+v, want peer 1 tag 9 got 4 want %d", te, se, slotLen)
				}
				for i, v := range backing {
					if v != sentinel {
						return fmt.Errorf("backing[%d] = %v was written", i, v)
					}
				}
				// AllToAllInto reports the same for a mis-sized local block.
				send := [][]complex128{payload}
				recv := [][]complex128{backing[:slotLen]}
				if err := AllToAllInto(opaque{selfOnly{c}}, send, recv); !errors.As(err, &se) {
					return fmt.Errorf("mis-sized local block: %v", err)
				}
				if backing[0] != sentinel {
					return errors.New("mis-sized local block was copied")
				}
				return nil
			})
			if err != nil {
				t.Errorf("fallback=%v slot=%d: %v", fallback, slotLen, err)
			}
		}
	}
}

// selfOnly presents a one-rank world, so that AllToAllInto does only its
// local copy.
type selfOnly struct{ Comm }

func (selfOnly) Size() int { return 1 }
func (selfOnly) Rank() int { return 0 }

// specialValues are payload bit patterns a frame must carry unchanged:
// quiet and signalling NaNs with payloads, negative zero, infinities,
// denormals.
func specialValues(n int) []complex128 {
	bits := []uint64{
		0x7ff8000000000001, 0xfff8dead0000beef, 0x7ff0000000000001, // NaNs
		0x8000000000000000, 0x0000000000000000, // -0, +0
		0x7ff0000000000000, 0xfff0000000000000, // +-Inf
		0x0000000000000001, 0x800fffffffffffff, // denormals
		math.Float64bits(math.Pi),
	}
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(math.Float64frombits(bits[i%len(bits)]), math.Float64frombits(bits[(i/3+1)%len(bits)]))
	}
	return v
}

func sameBits(a, b []complex128) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d elements, want %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return fmt.Errorf("element %d: %x+%xi, want %x+%xi", i,
				math.Float64bits(real(a[i])), math.Float64bits(imag(a[i])),
				math.Float64bits(real(b[i])), math.Float64bits(imag(b[i])))
		}
	}
	return nil
}

// frameLengths include frames that cross 64 KiB (4096 elements), the read
// buffer's size and the byte-order loops' scratch.
var frameLengths = []int{0, 1, 4095, 4096, 4097, 3*4096 + 7}

// TestFrameRoundTrip: on both byte-image paths (the payload's own memory,
// and the byte-order loops), writeFrame then readFrame is the identity on
// tags and payload bit patterns at every length, whatever sizes the reads
// arrive in (whole, one byte at a time, half of what is asked, random
// fragments that split elements), and back-to-back frames do not bleed
// into each other. The frame is a big-endian header and the payload's
// little-endian image.
func TestFrameRoundTrip(t *testing.T) {
	eachImagePath(t, func(t *testing.T) {
		var stream bytes.Buffer
		for i, n := range frameLengths {
			if err := writeFrame(&stream, 3, 100+i, specialValues(n)); err != nil {
				t.Fatal(err)
			}
		}
		want := []byte{0, 0, 0, 3, 0, 0, 0, 100, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 101, 0, 0, 0, 1}
		want = binary.LittleEndian.AppendUint64(want, math.Float64bits(real(specialValues(1)[0])))
		want = binary.LittleEndian.AppendUint64(want, math.Float64bits(imag(specialValues(1)[0])))
		if got := stream.Bytes()[:len(want)]; !bytes.Equal(got, want) {
			t.Fatalf("first frames % x, want % x", got, want)
		}
		rng := rand.New(rand.NewSource(1))
		readers := map[string]func() *bufio.Reader{
			"whole": func() *bufio.Reader { return bufio.NewReaderSize(bytes.NewReader(stream.Bytes()), readBufLen) },
			"one byte": func() *bufio.Reader {
				return bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(stream.Bytes())), 64)
			},
			"half": func() *bufio.Reader {
				return bufio.NewReaderSize(iotest.HalfReader(bytes.NewReader(stream.Bytes())), 64)
			},
			"fragments": func() *bufio.Reader {
				return bufio.NewReaderSize(&fragmentReader{bytes.NewReader(stream.Bytes()), rng}, 4096)
			},
		}
		for name, mk := range readers {
			br := mk()
			for i, n := range frameLengths {
				tag, data, err := readFrame(br)
				if err != nil {
					t.Fatalf("%s: frame %d: %v", name, i, err)
				}
				if tag != 100+i {
					t.Errorf("%s: frame %d: tag %d", name, i, tag)
				}
				if err := sameBits(data, specialValues(n)); err != nil {
					t.Errorf("%s: frame of %d elements: %v", name, n, err)
				}
			}
			if _, _, err := readFrame(br); err == nil {
				t.Errorf("%s: read a frame past the end of the stream", name)
			}
		}
	})
}

// fragmentReader returns 1 to 40 bytes per Read.
type fragmentReader struct {
	r   *bytes.Reader
	rng *rand.Rand
}

func (f *fragmentReader) Read(p []byte) (int, error) {
	return f.r.Read(p[:min(len(p), 1+f.rng.Intn(40))])
}

// TestTCPFrameRoundTrip sends the same lengths and bit patterns through a
// real mesh, by Recv and by SendRecvInto.
func TestTCPFrameRoundTrip(t *testing.T) {
	tcpWorld(t, 2, func(c Comm) error {
		peer := 1 - c.Rank()
		for i, n := range frameLengths {
			x := specialValues(n)
			got, err := SendRecv(c, peer, x, peer, 20+i)
			if err != nil {
				return err
			}
			if err := sameBits(got, x); err != nil {
				return fmt.Errorf("Recv of %d elements: %w", n, err)
			}
			into := make([]complex128, n)
			if err := SendRecvInto(c, peer, x, peer, 40+i, into); err != nil {
				return err
			}
			if err := sameBits(into, x); err != nil {
				return fmt.Errorf("SendRecvInto of %d elements: %w", n, err)
			}
		}
		return nil
	})
}

// TestTCPForgedFrameHeader: a peer that announces more elements than a
// frame may carry is marked dead before any buffer is sized by its count.
// Rank 2 is a raw connection that joins the mesh and then forges headers;
// the victims' pending receives from it fail at once with a typed error,
// the heap does not grow, and ranks 0 and 1 keep talking.
func TestTCPForgedFrameHeader(t *testing.T) {
	const size = 3
	lns := make([]net.Listener, 2)
	addrs := make([]string, size)
	for i := range lns {
		ln, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	// The forger dials both ranks and introduces itself as rank 2.
	forged := make([]net.Conn, 2)
	for i := range forged {
		conn, err := net.Dial("tcp", addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte{0, 0, 0, 2}); err != nil {
			t.Fatal(err)
		}
		forged[i] = conn
	}
	nodes := make([]*TCPNode, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nodes[r], errs[r] = ConnectTCPOpts(r, size, lns[r], addrs, TCPOptions{OpTimeout: 5 * time.Second})
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	defer nodes[0].Close()
	defer nodes[1].Close()

	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	pending := make(chan error, 2)
	for _, n := range nodes {
		go func() {
			_, err := n.Recv(2, 5)
			pending <- err
		}()
	}
	for i, count := range []uint32{math.MaxUint32, maxFrameElems + 1} {
		var hdr [frameHeaderLen]byte
		binary.BigEndian.PutUint32(hdr[0:4], 2)
		binary.BigEndian.PutUint32(hdr[4:8], 5)
		binary.BigEndian.PutUint32(hdr[8:12], count)
		if _, err := forged[i].Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	for range nodes {
		err := <-pending
		var te *TransportError
		if !errors.As(err, &te) || te.Peer != 2 || !errors.Is(err, ErrClosed) {
			t.Errorf("pending Recv from the forger: %v, want a *TransportError for peer 2 wrapping ErrClosed", err)
		}
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("forged header took %v to fail the pending receives (op timeout is 5s)", d)
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("forged headers made the victims allocate %d bytes", grew)
	}

	// The other pair of the mesh is unaffected.
	echo := make(chan error, 1)
	go func() {
		_, err := SendRecv(nodes[1], 0, []complex128{1i}, 0, 6)
		echo <- err
	}()
	got, err := SendRecv(nodes[0], 1, []complex128{2i}, 1, 6)
	if err = errors.Join(err, <-echo); err != nil || len(got) != 1 || got[0] != 1i {
		t.Errorf("ranks 0 and 1 after the forgery: received %v, error %v", got, err)
	}
}
