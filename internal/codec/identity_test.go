package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"soifft/internal/cvec"
)

// TestIdentityBothPaths: on both byte-image paths (the vector's own memory,
// and the byte-order loops) the identity codec's block body is the
// little-endian IEEE-754 image, appended after what dst holds, and decodes
// back to every bit pattern of the shared gauntlet; a whole framed stream
// round-trips too.
func TestIdentityBothPaths(t *testing.T) {
	host := cvec.NativeImage
	defer func() { cvec.NativeImage = host }()
	for _, view := range []bool{true, false} {
		if view && !host {
			continue
		}
		cvec.NativeImage = view
		for name, x := range testVectors() {
			want := []byte("prefix")
			for _, v := range x {
				want = binary.LittleEndian.AppendUint64(want, math.Float64bits(real(v)))
				want = binary.LittleEndian.AppendUint64(want, math.Float64bits(imag(v)))
			}
			got := identityCodec{}.EncodeBlock([]byte("prefix"), x)
			if !bytes.Equal(got, want) {
				t.Fatalf("view=%v %s: EncodeBlock differs from the little-endian image", view, name)
			}
			back := make([]complex128, len(x))
			if err := (identityCodec{}).DecodeBlock(back, got[len("prefix"):]); err != nil {
				t.Fatal(err)
			}
			stream := AppendVector(nil, identityCodec{}, x)
			again := make([]complex128, len(x))
			if err := DecodeVector(again, identityCodec{}, stream); err != nil {
				t.Fatalf("view=%v %s: %v", view, name, err)
			}
			for i, v := range x {
				for _, y := range []complex128{back[i], again[i]} {
					if math.Float64bits(real(y)) != math.Float64bits(real(v)) || math.Float64bits(imag(y)) != math.Float64bits(imag(v)) {
						t.Fatalf("view=%v %s: element %d: %v, want %v", view, name, i, y, v)
					}
				}
			}
		}
	}
}
