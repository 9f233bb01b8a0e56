package codec

import (
	"fmt"
	"slices"

	"soifft/internal/cvec"
)

// identityCodec is the wire's native representation, the vector's byte
// image (cvec.Encode). It exists so the codec plumbing has a zero-transform
// member — the fallback every peer understands — and so block framing (and
// its checksum) can be applied to raw payloads too.
type identityCodec struct{}

func (identityCodec) ID() ID         { return Identity }
func (identityCodec) Name() string   { return "identity" }
func (identityCodec) Lossless() bool { return true }

func (identityCodec) MaxBodyLen(elems int) int { return elems * bytesPerElem }

func (identityCodec) EncodeBlock(dst []byte, src []complex128) []byte {
	n := len(dst)
	dst = slices.Grow(dst, len(src)*bytesPerElem)[:n+len(src)*bytesPerElem]
	cvec.Encode(dst[n:], src)
	return dst
}

func (identityCodec) DecodeBlock(dst []complex128, body []byte) error {
	if len(body) != len(dst)*bytesPerElem {
		return fmt.Errorf("%w: identity body %d bytes for %d elements (want %d)",
			ErrCorrupt, len(body), len(dst), len(dst)*bytesPerElem)
	}
	cvec.Decode(dst, body)
	return nil
}
