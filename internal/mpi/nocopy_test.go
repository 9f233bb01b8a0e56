package mpi

import (
	"bufio"
	"bytes"
	"testing"
	"unsafe"

	"soifft/internal/cvec"
)

// eachImagePath runs f on the byte image's view (where the host has one)
// and on the byte-order loops. No mesh may be running meanwhile: its
// reader goroutines read the switch.
func eachImagePath(t *testing.T, f func(t *testing.T)) {
	host := cvec.NativeImage
	defer func() { cvec.NativeImage = host }()
	for _, view := range []bool{true, false} {
		if view && !host {
			continue
		}
		cvec.NativeImage = view
		t.Run(map[bool]string{true: "view", false: "loops"}[view], f)
	}
}

// inside reports that p lies within x's memory.
func inside(p []byte, x []complex128) bool {
	if len(p) == 0 || len(x) == 0 {
		return false
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(x)))
	at := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
	return at >= lo && at+uintptr(len(p)) <= lo+uintptr(16*len(x))
}

// spyWriter keeps what it is given and counts the bytes it was handed
// inside vec's memory.
type spyWriter struct {
	bytes.Buffer
	vec     []complex128
	aliased int
}

func (s *spyWriter) Write(p []byte) (int, error) {
	if inside(p, s.vec) {
		s.aliased += len(p)
	}
	return s.Buffer.Write(p)
}

// spyReader serves src and records the slices it filled, to be checked
// against the payload buffer readFrame returns.
type spyReader struct {
	src    *bytes.Reader
	filled [][]byte
}

func (s *spyReader) Read(p []byte) (int, error) {
	n, err := s.src.Read(p)
	s.filled = append(s.filled, p[:n])
	return n, err
}

// readFrame reads one message from br as the read loop reads a frame whose
// receive is not posted: the header, then the payload into a spare buffer
// of a mailbox.
func readFrame(br *bufio.Reader) (tag int, data []complex128, err error) {
	tag, count, err := readHeader(br)
	if err != nil {
		return 0, nil, err
	}
	data, err = newMailbox().readPayload(br, count)
	return tag, data, err
}

// TestFrameNoCopy is the no-copy gate of the TCP mesh: on a little-endian
// host writeFrame hands the connection the payload's own memory, and
// readFrame reads the payload into the buffer it returns — past the read
// buffer, which holds the header and at most its own size of payload.
func TestFrameNoCopy(t *testing.T) {
	if !cvec.NativeImage {
		t.Skip("memory holds another byte order: payloads convert through a scratch")
	}
	const n = 20000
	x := specialValues(n)
	w := &spyWriter{vec: x}
	if err := writeFrame(w, 1, 7, x); err != nil {
		t.Fatal(err)
	}
	if w.aliased != 16*n || w.Len() != frameHeaderLen+16*n {
		t.Errorf("writeFrame: %d of %d payload bytes written from the payload itself (frame %d bytes)", w.aliased, 16*n, w.Len())
	}

	const bufLen = 16 // bufio's smallest read buffer
	r := &spyReader{src: bytes.NewReader(w.Bytes())}
	tag, data, err := readFrame(bufio.NewReaderSize(r, bufLen))
	if err != nil || tag != 7 {
		t.Fatalf("readFrame: tag %d, %v", tag, err)
	}
	if err := sameBits(data, x); err != nil {
		t.Fatal(err)
	}
	direct := 0
	for _, p := range r.filled {
		if inside(p, data) {
			direct += len(p)
		}
	}
	if want := 16*n - (bufLen - frameHeaderLen); direct != want {
		t.Errorf("readFrame: %d payload bytes read straight into the returned buffer, want %d", direct, want)
	}
}
