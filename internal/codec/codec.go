// Package codec implements pluggable payload compression for the soifftd
// wire protocol's transform payloads (internal/wire, internal/serve,
// client). The distributed transforms' all-to-all carries raw vectors: the
// original IntelLabs implementation compresses it (compress.h), but on the
// benchmark's segment blocks the lossless codec saves nothing, and a smooth
// input's blocks pay only on links slower than about 160 MB/s
// (EXPERIMENTS.md, "The mesh carries raw vectors"). Three codecs are built
// in:
//
//   - Identity: raw little-endian float64 pairs, the wire's native format.
//   - DeltaPlane (lossless): split-complex second-order delta of the
//     order-mapped IEEE-754 bit patterns, byte-plane shuffle, and zero-run
//     RLE. Bit-exact for every float64, including NaN payloads, infinities
//     and denormals.
//   - Quant (lossy): mantissa rounding to a declared per-element relative
//     error bound, then the DeltaPlane pipeline. The bound is chosen by
//     the caller against an accuracy budget (soifft's Plan.EstimatedError);
//     decode is identical to DeltaPlane, so the encoded stream is fully
//     self-describing.
//
// # Block format
//
// A vector is encoded as a sequence of self-describing blocks of at most
// BlockElems complex128 values. Each block is a 12-byte little-endian
// header followed by the codec-specific body:
//
//	offset size field
//	0      1    codec ID
//	1      1    reserved (0)
//	2      2    element count (1..BlockElems)
//	4      4    body length in bytes
//	8      4    CRC-32C (Castagnoli) of the body
//
// The checksum is what turns in-flight corruption into a typed error
// (ErrCorrupt) instead of a silently wrong transform: the fault-injection
// sweep (internal/faultcomm) tampers payloads and asserts exactly that.
//
// # Trust boundary
//
// Decode treats every header field as hostile input. Element counts and
// body lengths are validated against hard caps (BlockElems, MaxBodyLen)
// before they size anything, so an adversarial stream draws a typed error
// under a bounded allocation — never an OOM and never a wrong answer. The
// streaming reader's scratch never exceeds one block (~68 KiB).
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// ID identifies a codec on the wire (one byte in block and frame headers).
type ID byte

// Wire codec identifiers. Identity is zero so a protocol-version-1 header
// (whose codec byte was "reserved, must be 0") reads back as identity.
const (
	Identity   ID = 0 // raw little-endian float64 pairs
	DeltaPlane ID = 1 // lossless delta / byte-plane / RLE
	Quant      ID = 2 // lossy mantissa quantization over the DeltaPlane pipeline
)

func (id ID) String() string {
	switch id {
	case Identity:
		return "identity"
	case DeltaPlane:
		return "deltaplane"
	case Quant:
		return "quant"
	}
	return fmt.Sprintf("codec(%d)", byte(id))
}

// IDs lists every codec this build understands, in wire-ID order. Used by
// the conformance tests and the flag parsers.
func IDs() []ID { return []ID{Identity, DeltaPlane, Quant} }

// ErrCorrupt is the typed verdict on an undecodable payload: a truncated
// block, an impossible length, a checksum mismatch, or trailing garbage.
// Transport layers wrap it (wire.ErrBadRequest on the server,
// mpi.TransportError in the collectives) so errors.Is classification works
// end to end.
var ErrCorrupt = errors.New("codec: corrupt payload")

// BlockElems is the maximum element count per block: 4096 complex128s,
// 64 KiB raw, so the encode and decode scratch stays cache-sized regardless
// of vector length.
const BlockElems = 4096

// blockHeaderLen is the fixed per-block header size.
const blockHeaderLen = 12

// bytesPerElem is the raw encoding width of one complex128.
const bytesPerElem = 16

// castagnoli is the CRC-32C table shared by all encoders/decoders.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Codec encodes and decodes blocks of complex128 values. Implementations
// are stateless and safe for concurrent use.
type Codec interface {
	// ID returns the wire identifier written into block headers.
	ID() ID
	// Name returns the human-readable codec name (flag syntax).
	Name() string
	// Lossless reports whether DecodeBlock(EncodeBlock(x)) is bit-exact.
	Lossless() bool
	// MaxBodyLen bounds the EncodeBlock output size for elems elements
	// (elems <= BlockElems). Decoders enforce it on untrusted lengths.
	MaxBodyLen(elems int) int
	// EncodeBlock appends the encoded body for src (1..BlockElems elements)
	// to dst and returns the extended slice.
	EncodeBlock(dst []byte, src []complex128) []byte
	// DecodeBlock decodes an untrusted body into dst (exactly len(dst)
	// elements). It returns an error wrapping ErrCorrupt on any malformed
	// input and never reads or writes out of bounds.
	DecodeBlock(dst []complex128, body []byte) error
}

// For resolves a wire codec ID (and, for Quant, the encoded drop-bits
// parameter) to a Codec. Unknown IDs return an error wrapping ErrCorrupt —
// at the trust boundary an unknown codec byte is indistinguishable from a
// corrupt frame.
func For(id ID, param byte) (Codec, error) {
	switch id {
	case Identity:
		return identityCodec{}, nil
	case DeltaPlane:
		return deltaPlaneCodec{}, nil
	case Quant:
		q, err := NewQuantBits(int(param))
		if err != nil {
			return nil, err
		}
		return q, nil
	}
	return nil, fmt.Errorf("%w: unknown codec ID %d", ErrCorrupt, byte(id))
}

// MustFor is For for statically-known arguments (tests, benchmarks);
// it panics on the errors For would return.
func MustFor(id ID, param byte) Codec {
	c, err := For(id, param)
	if err != nil {
		panic(err)
	}
	return c
}

// ByName resolves a codec flag value ("identity", "deltaplane", "quant")
// with tol as the Quant relative error bound.
func ByName(name string, tol float64) (Codec, error) {
	switch name {
	case "identity", "":
		return identityCodec{}, nil
	case "deltaplane", "delta":
		return deltaPlaneCodec{}, nil
	case "quant", "lossy":
		return NewQuant(tol)
	}
	return nil, fmt.Errorf("codec: unknown codec %q (want identity, deltaplane or quant)", name)
}

// Param returns the one-byte wire parameter a peer needs to reconstruct c
// for encoding (the Quant drop-bits count; zero for everything else).
func Param(c Codec) byte {
	if q, ok := c.(quantCodec); ok {
		return byte(q.drop)
	}
	return 0
}

// blocksFor is the block count covering elems elements.
func blocksFor(elems int) int {
	return (elems + BlockElems - 1) / BlockElems
}

// MaxEncodedLen is the upper bound on the encoded size of elems elements
// under any built-in codec — the trust-boundary cap a frame's declared
// payload length is validated against before any allocation. Saturates at
// MaxUint64 instead of wrapping on absurd element counts.
func MaxEncodedLen(elems int) uint64 {
	if elems <= 0 {
		return 0
	}
	e := uint64(elems)
	// DeltaPlane dominates: raw bytes + 1 control byte per 128-byte literal
	// run per plane + per-block headers. Work plane-wise: 16 planes of e
	// bytes each, each plane at most e + ceil(e/128) encoded bytes.
	perPlane := e + (e+127)/128
	const planes = 16
	if perPlane > math.MaxUint64/planes {
		return math.MaxUint64
	}
	body := perPlane * planes
	hdrs := uint64(blocksFor(elems)) * blockHeaderLen
	if body > math.MaxUint64-hdrs {
		return math.MaxUint64
	}
	return body + hdrs
}

// MaxElemsForEncoded bounds the element count any built-in codec can
// declare for an encoded stream of b bytes — the dual of MaxEncodedLen,
// used to cap allocations sized from an untrusted element count before the
// stream is decoded. The most compact legal encoding is DeltaPlane's
// all-zero-run body: 16 planes of ceil(elems/129) bytes per block plus the
// block header, i.e. strictly more than elems/9 bytes total.
func MaxElemsForEncoded(b uint64) uint64 {
	if b > math.MaxUint64/9 {
		return math.MaxUint64
	}
	return b * 9
}

// AppendVector encodes x as a block stream appended to dst. The returned
// slice is the frame payload: its length is what a wire header declares.
func AppendVector(dst []byte, c Codec, x []complex128) []byte {
	for len(x) > 0 {
		k := len(x)
		if k > BlockElems {
			k = BlockElems
		}
		dst = appendBlock(dst, c, x[:k])
		x = x[k:]
	}
	return dst
}

// 1/minSaving is the smallest fraction of its raw bytes a payload must save
// for encoding it to pay. Encoding costs raw/E + raw/D of CPU (encode at E,
// decode at D, both over the raw bytes) and saves s·raw/L of transfer on a
// link of rate L, so a saving s pays only on links slower than
// s / (1/E + 1/D). At the deltaplane rates measured on a 2-vCPU AVX2 Xeon,
// E = 2.2 GB/s and D = 2.8 GB/s, that is 1.23 GB/s · s, and s = 1/8 puts
// break-even at ≈ 154 MB/s, about 1 GbE. A spectrum (saving 0.8 %) or
// noise (0.3 %) never reaches it; a smooth signal (34 %) does.
const minSaving = 8

// AppendVectorIfSmaller encodes x onto dst, like AppendVector, when its
// first block saves at least 1/minSaving of its raw bytes, and reports
// whether it did; otherwise it returns dst unchanged and false, and the
// caller sends x raw. The probe block is the stream's first, so a payload
// that passes is encoded once and is byte for byte AppendVector's stream.
func AppendVectorIfSmaller(dst []byte, c Codec, x []complex128) ([]byte, bool) {
	k := min(len(x), BlockElems)
	if k == 0 {
		return dst, false
	}
	enc := appendBlock(dst, c, x[:k])
	if raw := k * bytesPerElem; minSaving*(len(enc)-len(dst)) > (minSaving-1)*raw {
		return dst, false
	}
	return AppendVector(enc, c, x[k:]), true
}

// freeList pools buffers for callers that borrow on one goroutine what another
// returned. A sync.Pool alone keeps a returned buffer in the private slot of
// the P that returned it, so a borrower on another P (a client on two
// connections, a server's writer goroutines) misses it and allocates a
// payload-sized buffer again, and two collections drop it. Both sides try
// the slots first, in order; the pool takes what the slots cannot hold and
// makes the new values.
type freeList struct {
	slots [4]atomic.Pointer[[]byte]
	pool  sync.Pool
}

func (l *freeList) get() *[]byte {
	for i := range l.slots {
		if p := l.slots[i].Swap(nil); p != nil {
			return p
		}
	}
	return l.pool.Get().(*[]byte)
}

func (l *freeList) put(p *[]byte) {
	for i := range l.slots {
		if l.slots[i].CompareAndSwap(nil, p) {
			return
		}
	}
	l.pool.Put(p)
}

// staging holds the buffers BorrowStaging lends out.
var staging = freeList{pool: sync.Pool{New: func() any { return new([]byte) }}}

// BorrowStaging returns a pooled, empty buffer with room for the encoded
// form of elems elements under any codec (MaxEncodedLen): the staging area
// of a length-prefixed transport, which must hold a whole encoded payload
// to learn the length its header declares before the first byte leaves.
// Hand it back with ReturnStaging once the write has returned; nothing may
// keep a reference into it after that.
func BorrowStaging(elems int) *[]byte {
	b := staging.get()
	if n := MaxEncodedLen(elems); uint64(cap(*b)) < n {
		*b = make([]byte, 0, n)
	}
	return b
}

// ReturnStaging gives a BorrowStaging buffer back to the pool.
func ReturnStaging(b *[]byte) {
	*b = (*b)[:0]
	staging.put(b)
}

// appendBlock encodes one block (header + body) onto dst.
func appendBlock(dst []byte, c Codec, src []complex128) []byte {
	hdrAt := len(dst)
	dst = append(dst, make([]byte, blockHeaderLen)...)
	bodyAt := len(dst)
	dst = c.EncodeBlock(dst, src)
	body := dst[bodyAt:]
	hdr := dst[hdrAt:bodyAt]
	hdr[0] = byte(c.ID())
	hdr[1] = 0
	binary.LittleEndian.PutUint16(hdr[2:], uint16(len(src)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[8:], crc32.Checksum(body, castagnoli))
	return dst
}

// blockHeader is one decoded (still untrusted) block header.
type blockHeader struct {
	id    ID
	elems int
	body  int
	crc   uint32
}

// ReadBlockHeader decodes and bound-checks one block header from buf. This
// is a trust boundary: elems and body come off the wire, so they are
// range-checked here against the hard caps before anything is sized by
// them.
func ReadBlockHeader(buf []byte, want ID) (blockHeader, error) {
	if len(buf) < blockHeaderLen {
		return blockHeader{}, fmt.Errorf("%w: truncated block header (%d bytes)", ErrCorrupt, len(buf))
	}
	h := blockHeader{
		id:    ID(buf[0]),
		elems: int(binary.LittleEndian.Uint16(buf[2:])),
		body:  int(binary.LittleEndian.Uint32(buf[4:])),
		crc:   binary.LittleEndian.Uint32(buf[8:]),
	}
	if h.id != want {
		return blockHeader{}, fmt.Errorf("%w: block codec %v, stream negotiated %v", ErrCorrupt, h.id, want)
	}
	if buf[1] != 0 {
		return blockHeader{}, fmt.Errorf("%w: nonzero reserved block byte", ErrCorrupt)
	}
	if h.elems < 1 || h.elems > BlockElems {
		return blockHeader{}, fmt.Errorf("%w: block element count %d out of range [1,%d]", ErrCorrupt, h.elems, BlockElems)
	}
	return h, nil
}

// checkBody validates h's body length against the codec's declared bound
// and the block's element count — the allocation cap for the body read.
func checkBody(c Codec, h blockHeader) error {
	if h.body < 1 || h.body > c.MaxBodyLen(h.elems) {
		return fmt.Errorf("%w: block body %d bytes outside (0,%d] for %d elements",
			ErrCorrupt, h.body, c.MaxBodyLen(h.elems), h.elems)
	}
	return nil
}

// wantBlockElems is the canonical block size at a given remaining element
// count: full blocks, then one partial tail. Decoders enforce it, so the
// block structure of a valid stream is a function of the vector length
// alone — which is what makes MaxEncodedLen a true bound (a hostile stream
// cannot inflate itself with thousands of one-element blocks) and the
// declared-length validation sound.
func wantBlockElems(remaining int) int {
	if remaining > BlockElems {
		return BlockElems
	}
	return remaining
}

// DecodeVector decodes an entire encoded stream into dst: exactly len(dst)
// elements and exactly len(src) bytes must be consumed, else a typed
// error. src is untrusted.
func DecodeVector(dst []complex128, c Codec, src []byte) error {
	for len(dst) > 0 {
		h, err := ReadBlockHeader(src, c.ID())
		if err != nil {
			return err
		}
		if err := checkBody(c, h); err != nil {
			return err
		}
		if h.elems != wantBlockElems(len(dst)) {
			return fmt.Errorf("%w: block of %d elements where the canonical blocking needs %d", ErrCorrupt, h.elems, wantBlockElems(len(dst)))
		}
		if blockHeaderLen+h.body > len(src) {
			return fmt.Errorf("%w: truncated block body (%d declared, %d available)",
				ErrCorrupt, h.body, len(src)-blockHeaderLen)
		}
		body := src[blockHeaderLen : blockHeaderLen+h.body]
		if got := crc32.Checksum(body, castagnoli); got != h.crc {
			return fmt.Errorf("%w: block checksum %08x, header declares %08x", ErrCorrupt, got, h.crc)
		}
		if err := c.DecodeBlock(dst[:h.elems], body); err != nil {
			return err
		}
		dst = dst[h.elems:]
		src = src[blockHeaderLen+h.body:]
	}
	if len(src) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after the final block", ErrCorrupt, len(src))
	}
	return nil
}

// readScratch pools one-block read buffers for the streaming reader:
// header + worst-case DeltaPlane body for a full block.
var readScratch = freeList{pool: sync.Pool{
	New: func() any {
		b := make([]byte, blockHeaderLen+int(MaxEncodedLen(BlockElems)))
		return &b
	},
}}

// ReadVector decodes exactly len(dst) elements from a stream of declared
// total bytes on r, consuming exactly declared bytes on success. It is the
// streaming twin of DecodeVector: scratch is one pooled block (~68 KiB)
// regardless of vector size, declared and every block header are
// untrusted, and failure is a typed error — io errors pass through,
// everything structural wraps ErrCorrupt.
func ReadVector(r io.Reader, c Codec, dst []complex128, declared uint64) error {
	if declared > MaxEncodedLen(len(dst)) {
		return fmt.Errorf("%w: declared payload %d bytes exceeds the %d-byte bound for %d elements",
			ErrCorrupt, declared, MaxEncodedLen(len(dst)), len(dst))
	}
	bp := readScratch.get()
	defer readScratch.put(bp)
	scratch := *bp
	remaining := declared
	for len(dst) > 0 {
		if remaining < blockHeaderLen {
			return fmt.Errorf("%w: %d payload bytes left, block header needs %d", ErrCorrupt, remaining, blockHeaderLen)
		}
		if _, err := io.ReadFull(r, scratch[:blockHeaderLen]); err != nil {
			return fmt.Errorf("codec: reading block header: %w", err)
		}
		remaining -= blockHeaderLen
		h, err := ReadBlockHeader(scratch[:blockHeaderLen], c.ID())
		if err != nil {
			return err
		}
		if err := checkBody(c, h); err != nil {
			return err
		}
		if h.elems != wantBlockElems(len(dst)) {
			return fmt.Errorf("%w: block of %d elements where the canonical blocking needs %d", ErrCorrupt, h.elems, wantBlockElems(len(dst)))
		}
		if uint64(h.body) > remaining {
			return fmt.Errorf("%w: block body %d bytes exceeds the %d payload bytes left", ErrCorrupt, h.body, remaining)
		}
		// checkBody capped h.body at MaxBodyLen, which the pooled scratch is
		// sized for; remaining only shrinks below the caller-validated
		// declared total.
		body := scratch[:h.body]
		if _, err := io.ReadFull(r, body); err != nil {
			return fmt.Errorf("codec: reading block body: %w", err)
		}
		remaining -= uint64(h.body)
		if got := crc32.Checksum(body, castagnoli); got != h.crc {
			return fmt.Errorf("%w: block checksum %08x, header declares %08x", ErrCorrupt, got, h.crc)
		}
		if err := c.DecodeBlock(dst[:h.elems], body); err != nil {
			return err
		}
		dst = dst[h.elems:]
	}
	if remaining != 0 {
		return fmt.Errorf("%w: %d declared payload bytes beyond the final block", ErrCorrupt, remaining)
	}
	return nil
}
