package mpi

import (
	"fmt"
	"math"
	"time"

	"soifft/internal/codec"
	"soifft/internal/cvec"
)

// WithCodec wraps inner so every payload crosses the transport as a
// compressed internal/codec block stream, packed into complex128 words (the
// only data type the Comm interface carries). This is the all-to-all
// compression path of the distributed FFTs: the SOI exchange moves
// oversampled spectra whose smoothness the delta codec exploits, and a lossy
// quantizer can trade designed accuracy headroom for bandwidth.
//
// Both sides of a world must be wrapped with the same codec — the peer's
// stream is decoded against the local configuration, and a mismatch is a
// detected corruption, not a silent reinterpretation. Received payloads are
// untrusted: the framing words are validated against the codec size algebra
// before any allocation is sized from them, and every failure surfaces as a
// *TransportError wrapping codec.ErrCorrupt. An identity or nil codec
// returns inner unchanged.
//
// Stacking order: apply WithCodec outermost, over any other middleware
// (faultcomm's sweep runs WithCodec(injected comm)), so only application
// payloads are compressed and the inner layers carry the encoded stream.
func WithCodec(inner Comm, c codec.Codec) Comm {
	if c == nil || c.ID() == codec.Identity {
		return inner
	}
	return &codecComm{inner: inner, c: c}
}

type codecComm struct {
	inner Comm
	c     codec.Codec
}

var _ Comm = (*codecComm)(nil)
var _ DeadlineRecver = (*codecComm)(nil)

func (cc *codecComm) Rank() int { return cc.inner.Rank() }
func (cc *codecComm) Size() int { return cc.inner.Size() }

// Send encodes data and ships it as one header word — complex(elements,
// encoded bytes) — followed by the encoded stream packed 16 bytes per word.
// Both buffers are borrowed: inner.Send copies what it is given.
func (cc *codecComm) Send(dst, tag int, data []complex128) error {
	st := codec.BorrowStaging(len(data))
	defer codec.ReturnStaging(st)
	enc := codec.AppendVector(*st, cc.c, data)
	msg := getPayload(1 + (len(enc)+15)/16)
	defer putPayload(msg)
	msg[0] = complex(float64(len(data)), float64(len(enc)))
	packBytes(msg[1:], enc)
	return cc.inner.Send(dst, tag, msg)
}

func (cc *codecComm) Recv(src, tag int) ([]complex128, error) {
	msg, err := cc.inner.Recv(src, tag)
	if err != nil {
		return nil, err
	}
	return cc.decode(msg, src, tag)
}

// RecvDeadline forwards the per-op deadline when the inner transport
// supports one, like the other middlewares in this package.
func (cc *codecComm) RecvDeadline(src, tag int, deadline time.Time) ([]complex128, error) {
	dr, ok := cc.inner.(DeadlineRecver)
	if !ok {
		return cc.Recv(src, tag)
	}
	msg, err := dr.RecvDeadline(src, tag, deadline)
	if err != nil {
		return nil, err
	}
	return cc.decode(msg, src, tag)
}

func (cc *codecComm) Close() error { return cc.inner.Close() }

// decode validates and decompresses one received message. The framing words
// come from the peer: the element count and byte length must be exact
// non-negative integers, the byte length must match the packed words it
// arrived in, and the two are held to each other by the codec size algebra
// (codec.MaxElemsForEncoded, codec.MaxEncodedLen) so a hostile header cannot
// size an allocation beyond a small multiple of the bytes actually received.
func (cc *codecComm) decode(msg []complex128, src, tag int) ([]complex128, error) {
	corrupt := func(format string, a ...any) error {
		return &TransportError{Op: "recv", Peer: src, Tag: tag,
			Err: fmt.Errorf("%w: "+format, append([]any{codec.ErrCorrupt}, a...)...)}
	}
	if len(msg) < 1 {
		return nil, corrupt("compressed message has no framing word")
	}
	er, eb := real(msg[0]), imag(msg[0])
	if er != math.Trunc(er) || eb != math.Trunc(eb) || er < 0 || eb < 0 ||
		er > float64(math.MaxInt32) || eb > float64(math.MaxInt32) {
		return nil, corrupt("bad framing word (%g elements, %g bytes)", er, eb)
	}
	elems, encLen := int(er), int(eb)
	words := len(msg) - 1
	if (encLen+15)/16 != words {
		return nil, corrupt("%d encoded bytes do not fill %d packed words", encLen, words)
	}
	if elems > 0 && uint64(elems) > codec.MaxElemsForEncoded(uint64(encLen)) {
		return nil, corrupt("%d elements exceed the %d-byte stream's bound", elems, encLen)
	}
	if uint64(encLen) > codec.MaxEncodedLen(elems) {
		return nil, corrupt("%d encoded bytes exceed the bound for %d elements", encLen, elems)
	}
	st := codec.BorrowStaging(elems)
	defer codec.ReturnStaging(st)
	enc := (*st)[:encLen]
	unpackBytes(enc, msg[1:])
	dst := make([]complex128, elems)
	if err := codec.DecodeVector(dst, cc.c, enc); err != nil {
		return nil, &TransportError{Op: "recv", Peer: src, Tag: tag, Err: err}
	}
	return dst, nil
}

// packBytes stores b into words as their byte image (internal/cvec),
// zero-padding the tail. Bit patterns are preserved exactly: the
// components never enter floating-point arithmetic.
func packBytes(words []complex128, b []byte) {
	var tail [16]byte
	full := len(b) / 16
	cvec.Decode(words[:full], b)
	copy(tail[:], b[16*full:])
	cvec.Decode(words[full:], tail[:])
}

// unpackBytes is the inverse of packBytes, filling exactly len(b) bytes.
func unpackBytes(b []byte, words []complex128) {
	var tail [16]byte
	full := len(b) / 16
	cvec.Encode(b, words[:full])
	cvec.Encode(tail[:], words[full:min(full+1, len(words))])
	copy(b[16*full:], tail[:])
}
