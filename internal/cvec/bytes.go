package cvec

import (
	"encoding/binary"
	"io"
	"math"
	"unsafe"
)

// BytesPerElem is the width of one element of a vector's byte image, the form
// the soifftd wire, the mpi TCP mesh and the identity codec carry it in: two
// little-endian IEEE-754 float64s, real then imaginary.
const BytesPerElem = 16

// NativeImage reports that memory holds a complex128 in its byte image's
// order. It is decided once, here; only tests assign it (with no vector in
// flight), to run the byte-order loops on such a host.
var NativeImage = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// View returns x's byte image as x's own memory, and true — so a payload
// crosses a socket with the kernel's copy alone — or nil and false where
// memory holds another byte order. Writes through the view change x.
func View(x []complex128) ([]byte, bool) {
	if !NativeImage {
		return nil, false
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(x))), len(x)*BytesPerElem), true
}

// Encode stores x's byte image in b[:BytesPerElem*len(x)].
func Encode(b []byte, x []complex128) {
	b = b[:len(x)*BytesPerElem]
	if v, ok := View(x); ok {
		copy(b, v)
		return
	}
	for i, c := range x {
		e := b[16*i : 16*i+16 : 16*i+16] // one bounds check per element
		binary.LittleEndian.PutUint64(e, math.Float64bits(real(c)))
		binary.LittleEndian.PutUint64(e[8:], math.Float64bits(imag(c)))
	}
}

// Decode fills x from the byte image in b[:BytesPerElem*len(x)]. Bit
// patterns (NaN payloads, -0, denormals) are kept exactly.
func Decode(x []complex128, b []byte) {
	b = b[:len(x)*BytesPerElem]
	if v, ok := View(x); ok {
		copy(v, b)
		return
	}
	for i := range x {
		e := b[16*i : 16*i+16 : 16*i+16]
		x[i] = complex(math.Float64frombits(binary.LittleEndian.Uint64(e)),
			math.Float64frombits(binary.LittleEndian.Uint64(e[8:])))
	}
}

// streamElems bounds the scratch ReadVector and WriteVector convert through
// where there is no view: 4096 elements, 64 KiB.
const streamElems = 4096

// ReadVector fills dst with the byte image read from r: one io.ReadFull
// into dst's own memory where View has it.
func ReadVector(r io.Reader, dst []complex128) error {
	if v, ok := View(dst); ok {
		_, err := io.ReadFull(r, v)
		return err
	}
	buf := make([]byte, BytesPerElem*min(len(dst), streamElems))
	for i := 0; i < len(dst); i += streamElems {
		part := dst[i:min(i+streamElems, len(dst))]
		if _, err := io.ReadFull(r, buf[:len(part)*BytesPerElem]); err != nil {
			return err
		}
		Decode(part, buf)
	}
	return nil
}

// WriteVector writes x's byte image to w: one Write of x's own memory where
// View has it.
func WriteVector(w io.Writer, x []complex128) error {
	if v, ok := View(x); ok {
		_, err := w.Write(v)
		return err
	}
	buf := make([]byte, BytesPerElem*min(len(x), streamElems))
	for i := 0; i < len(x); i += streamElems {
		part := x[i:min(i+streamElems, len(x))]
		Encode(buf, part)
		if _, err := w.Write(buf[:len(part)*BytesPerElem]); err != nil {
			return err
		}
	}
	return nil
}
