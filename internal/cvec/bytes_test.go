package cvec

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"
	"testing/iotest"
)

// eachImagePath runs f on View's path (where the host has one) and on the
// byte-order loops.
func eachImagePath(t *testing.T, f func(t *testing.T)) {
	host := NativeImage
	defer func() { NativeImage = host }()
	for _, view := range []bool{true, false} {
		if view && !host {
			continue
		}
		NativeImage = view
		t.Run(map[bool]string{true: "view", false: "loops"}[view], f)
	}
}

// imageSpecials are bit patterns the byte image must carry unchanged:
// quiet and signalling NaNs with payloads, ±0, ±Inf, denormals.
var imageSpecials = []uint64{
	0x7ff8000000000001, 0xfff8dead0000beef, 0x7ff0000000000001,
	0x8000000000000000, 0x0000000000000000,
	0x7ff0000000000000, 0xfff0000000000000,
	0x0000000000000001, 0x800fffffffffffff,
	0x400921fb54442d18, // π
}

func specialVector(n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Float64frombits(imageSpecials[i%len(imageSpecials)]),
			math.Float64frombits(imageSpecials[(i/3+1)%len(imageSpecials)]))
	}
	return x
}

// referenceImage spells the byte image out: real then imaginary,
// little-endian IEEE-754 bits.
func referenceImage(x []complex128) []byte {
	b := make([]byte, 0, len(x)*BytesPerElem)
	for _, v := range x {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(real(v)))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(imag(v)))
	}
	return b
}

func sameBits(t *testing.T, got, want []complex128) {
	t.Helper()
	for i := range want {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("element %d of %d: %x+%xi, want %x+%xi", i, len(want),
				math.Float64bits(real(got[i])), math.Float64bits(imag(got[i])),
				math.Float64bits(real(want[i])), math.Float64bits(imag(want[i])))
		}
	}
}

// TestByteImage: on both paths Encode and WriteVector produce the reference
// image, and Decode and ReadVector restore every bit pattern, whatever
// sizes the reads arrive in, across the loops' 4096-element scratch.
func TestByteImage(t *testing.T) {
	eachImagePath(t, func(t *testing.T) {
		for _, n := range []int{0, 1, 3, streamElems - 1, streamElems, streamElems + 1, 3*streamElems + 7} {
			x := specialVector(n)
			want := referenceImage(x)
			enc := make([]byte, len(want))
			Encode(enc, x)
			if !bytes.Equal(enc, want) {
				t.Fatalf("n=%d: Encode differs from the reference image", n)
			}
			var buf bytes.Buffer
			if err := WriteVector(&buf, x); err != nil || !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("n=%d: WriteVector: %v, or bytes differ from the reference image", n, err)
			}
			got := make([]complex128, n)
			Decode(got, want)
			sameBits(t, got, x)
			for name, r := range map[string]func(io.Reader) io.Reader{
				"whole":    func(r io.Reader) io.Reader { return r },
				"one byte": iotest.OneByteReader,
				"half":     iotest.HalfReader,
			} {
				got := make([]complex128, n)
				if err := ReadVector(r(bytes.NewReader(want)), got); err != nil {
					t.Fatalf("n=%d, %s reads: %v", n, name, err)
				}
				sameBits(t, got, x)
			}
			if n > 0 {
				if err := ReadVector(bytes.NewReader(want[:len(want)-1]), got); err == nil {
					t.Fatalf("n=%d: ReadVector accepted a truncated image", n)
				}
			}
		}
	})
}

// TestViewIsTheVector: on a little-endian host View is x's own memory.
func TestViewIsTheVector(t *testing.T) {
	if !NativeImage {
		t.Skip("memory holds another byte order: no view")
	}
	x := specialVector(5)
	v, ok := View(x)
	if !ok || len(v) != 5*BytesPerElem || !bytes.Equal(v, referenceImage(x)) {
		t.Fatalf("View(x) = %d bytes, %v; want x's 80-byte image", len(v), ok)
	}
	v[0] ^= 1
	if math.Float64bits(real(x[0])) != imageSpecials[0]^1 {
		t.Error("a write through the view did not reach x")
	}
}
