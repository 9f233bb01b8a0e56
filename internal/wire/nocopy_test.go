package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"unsafe"

	"soifft/internal/cvec"
)

// eachImagePath runs f on the byte image's view (where the host has one)
// and on the byte-order loops.
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

// specialVector cycles through bit patterns a payload must carry
// unchanged: NaNs with payloads, ±0, ±Inf, denormals.
func specialVector(n int) []complex128 {
	bits := []uint64{0x7ff8000000000001, 0xfff8dead0000beef, 0x8000000000000000, 0,
		0x7ff0000000000000, 0xfff0000000000000, 1, 0x800fffffffffffff}
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Float64frombits(bits[i%len(bits)]), math.Float64frombits(bits[(i/3+1)%len(bits)]))
	}
	return x
}

// referenceImage spells the identity payload out: real then imaginary,
// little-endian IEEE-754 bits.
func referenceImage(x []complex128) []byte {
	b := make([]byte, 0, len(x)*BytesPerElem)
	for _, v := range x {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(real(v)))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(imag(v)))
	}
	return b
}

// inside reports that p lies within x's memory.
func inside(p []byte, x []complex128) bool {
	if len(p) == 0 || len(x) == 0 {
		return false
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(x)))
	at := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
	return at >= lo && at+uintptr(len(p)) <= lo+uintptr(len(x)*BytesPerElem)
}

// spy is an io.Reader and io.Writer that serves or keeps bytes and counts
// those it moved through slices inside vec.
type spy struct {
	bytes.Buffer
	vec     []complex128
	aliased int // bytes moved through slices inside vec
}

func (s *spy) Read(p []byte) (int, error) {
	n, err := s.Buffer.Read(p)
	if inside(p[:n], s.vec) {
		s.aliased += n
	}
	return n, err
}

func (s *spy) Write(p []byte) (int, error) {
	if inside(p, s.vec) {
		s.aliased += len(p)
	}
	return s.Buffer.Write(p)
}

// TestVectorNoCopy is the no-copy gate of the identity payload: on a
// little-endian host ReadVector hands the reader the destination's own
// memory, and WriteVector hands the writer the source's own memory — no
// byte of the payload is staged. TestWriterLargeFrameNoCopy holds Writer,
// the server's and the client's frame writer, to the same behind a header.
func TestVectorNoCopy(t *testing.T) {
	if !cvec.NativeImage {
		t.Skip("memory holds another byte order: payloads convert through a scratch")
	}
	const n = 28672
	x := specialVector(n)

	dst := make([]complex128, n)
	r := &spy{vec: dst}
	r.Write(referenceImage(x))
	if err := ReadVector(r, dst); err != nil {
		t.Fatal(err)
	}
	if r.aliased != n*BytesPerElem {
		t.Errorf("ReadVector: %d of %d payload bytes read straight into the destination", r.aliased, n*BytesPerElem)
	}

	w := &spy{vec: x}
	if err := WriteVector(w, x); err != nil {
		t.Fatal(err)
	}
	if w.aliased != n*BytesPerElem {
		t.Errorf("WriteVector: %d of %d payload bytes written from the source itself", w.aliased, n*BytesPerElem)
	}
	if !bytes.Equal(w.Bytes(), referenceImage(x)) {
		t.Errorf("%d bytes written, want the payload's image", w.Len())
	}
}
