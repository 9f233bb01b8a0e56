// Package wire defines the soifftd client/server protocol: length-prefixed,
// versioned binary frames over a byte stream (TCP in production, any
// io.ReadWriter in tests).
//
// # Frame layout
//
// Every frame is a fixed 48-byte little-endian header followed by
// PayloadLen payload bytes:
//
//	offset size field
//	0      2    magic (0x501F)
//	2      1    version (1 or 2)
//	3      1    type (TForward, TInverse, TBatch, TStats, TResult, TError, TStatsResult)
//	4      1    alg (AlgAuto, AlgExact, AlgSOI)
//	5      1    codec ID (v2; reserved, must be 0, in v1)
//	6      1    flags (bit 0: inverse direction, TBatch only)
//	7      1    codec parameter (v2: Quant mantissa drop bits; reserved in v1)
//	8      4    code (error code, TError only)
//	12     4    count (transforms in frame; 1 for TForward/TInverse)
//	16     8    reqID (echoed verbatim in the response frame)
//	24     8    n (per-transform element count)
//	32     8    deadline (unix nanoseconds; 0 = none)
//	40     8    payloadLen (bytes after the header)
//
// Identity transform payloads are count*n complex128 values, each encoded
// as two little-endian IEEE-754 float64s (real then imaginary) —
// 16*count*n bytes, the vector's byte image (internal/cvec). On a
// little-endian host that is the vector's own memory, read straight into the
// destination and written straight from the source: neither side stages a
// copy (a 2^24-point transform is 256 MiB of payload).
// TError payloads are a UTF-8 message; TStatsResult payloads are UTF-8
// "name value" lines.
//
// # Version 2: payload codecs
//
// Version 2 frames may compress transform payloads: header byte 5 names an
// internal/codec ID and byte 7 carries its one-byte parameter (the Quant
// mantissa drop count). The compressed payload is the codec's
// self-describing block stream; PayloadLen declares its exact byte length,
// bounded by codec.MaxEncodedLen. A v2 peer always accepts v1 frames, and
// a response frame echoes the request's version, so a v1-only peer (which
// never sends a codec byte) interoperates untouched — the identity
// fallback. A response's codec is the request's, or identity when the
// payload's first codec block does not pay (codec.AppendVectorIfSmaller):
// a receiver decodes every frame by its own header. Version 1 frames with
// a nonzero byte 5 or byte 7 are rejected: those bytes were reserved-zero
// in v1, so a nonzero value is corruption, not negotiation.
//
// Requests are identified by reqID, so a connection may pipeline: many
// requests in flight, responses in completion order. That out-of-order
// freedom is what lets the server coalesce same-size requests into one
// batched kernel call and flush their responses in one write.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"

	"soifft/internal/codec"
	"soifft/internal/cvec"
)

// Magic identifies a soifftd frame. Version is the current protocol
// revision; every revision down to MinVersion is still accepted, so a v1
// peer (pre-codec) interoperates via the identity fallback.
const (
	Magic      uint16 = 0x501F
	Version    byte   = 2
	MinVersion byte   = 1
)

// HeaderLen is the fixed frame-header size in bytes.
const HeaderLen = 48

// BytesPerElem is the payload encoding width of one complex128.
const BytesPerElem = cvec.BytesPerElem

// Type enumerates frame types.
type Type byte

const (
	TForward     Type = 1 // request: one forward transform of n points
	TInverse     Type = 2 // request: one inverse transform of n points
	TBatch       Type = 3 // request: count same-length transforms, one direction
	TStats       Type = 4 // request: server statistics snapshot
	TResult      Type = 5 // response: count*n transformed values
	TError       Type = 6 // response: structured error (code + message)
	TStatsResult Type = 7 // response: statistics text
)

func (t Type) String() string {
	switch t {
	case TForward:
		return "Forward"
	case TInverse:
		return "Inverse"
	case TBatch:
		return "Batch"
	case TStats:
		return "Stats"
	case TResult:
		return "Result"
	case TError:
		return "Error"
	case TStatsResult:
		return "StatsResult"
	}
	return fmt.Sprintf("Type(%d)", byte(t))
}

// Alg selects the transform algorithm on the server.
type Alg byte

const (
	AlgAuto  Alg = 0 // server picks; today always the exact plan
	AlgExact Alg = 1 // exact mixed-radix/Bluestein FFT
	AlgSOI   Alg = 2 // approximate SOI factorization (paper accuracy bound)
)

// FlagInverse marks a TBatch frame as inverse-direction.
const FlagInverse uint16 = 1

// Error codes carried by TError frames.
const (
	CodeOverloaded       uint32 = 1
	CodeDeadlineExceeded uint32 = 2
	CodeShuttingDown     uint32 = 3
	CodeBadRequest       uint32 = 4
	CodeInternal         uint32 = 5
)

// Typed protocol errors. Server-side admission and execution return these;
// the client rebuilds them from TError frames, so errors.Is works
// end-to-end across the wire.
var (
	ErrOverloaded       = errors.New("soifftd: overloaded")
	ErrDeadlineExceeded = errors.New("soifftd: deadline exceeded")
	ErrShuttingDown     = errors.New("soifftd: shutting down")
	ErrBadRequest       = errors.New("soifftd: bad request")
	ErrInternal         = errors.New("soifftd: internal error")
)

// CodeFor maps an error to its wire code (CodeInternal if unrecognized).
func CodeFor(err error) uint32 {
	switch {
	case errors.Is(err, ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, ErrDeadlineExceeded):
		return CodeDeadlineExceeded
	case errors.Is(err, ErrShuttingDown):
		return CodeShuttingDown
	case errors.Is(err, ErrBadRequest):
		return CodeBadRequest
	}
	return CodeInternal
}

// ErrFor rebuilds a typed error from a wire code and detail message.
func ErrFor(code uint32, msg string) error {
	var base error
	switch code {
	case CodeOverloaded:
		base = ErrOverloaded
	case CodeDeadlineExceeded:
		base = ErrDeadlineExceeded
	case CodeShuttingDown:
		base = ErrShuttingDown
	case CodeBadRequest:
		base = ErrBadRequest
	default:
		base = ErrInternal
	}
	if msg == "" {
		return base
	}
	return fmt.Errorf("%w: %s", base, msg)
}

// Header is the decoded fixed-size frame header.
type Header struct {
	Version    byte // protocol revision; 0 encodes as the current Version
	Type       Type
	Alg        Alg
	Codec      codec.ID // payload codec (v2; must be Identity under v1)
	CodecParam byte     // codec parameter: Quant mantissa drop bits (v2)
	Flags      uint16   // flag bits (low byte on the wire; high byte is CodecParam)
	Code       uint32
	Count      uint32
	ReqID      uint64
	N          uint64
	Deadline   int64 // unix nanoseconds; 0 = none
	PayloadLen uint64
}

// Inverse reports the transform direction encoded in the header: the frame
// type for single requests, FlagInverse for batches.
func (h *Header) Inverse() bool {
	return h.Type == TInverse || h.Flags&FlagInverse != 0
}

// WriteHeader encodes h to w. A zero h.Version writes the current Version;
// an explicit h.Version must be within [MinVersion, Version], and a v1
// header cannot carry a codec (those bytes were reserved-zero in v1).
func WriteHeader(w io.Writer, h *Header) error {
	var buf [HeaderLen]byte
	if err := putHeader(&buf, h); err != nil {
		return err
	}
	_, err := w.Write(buf[:])
	return err
}

// putHeader encodes h into buf under WriteHeader's rules.
func putHeader(buf *[HeaderLen]byte, h *Header) error {
	v := h.Version
	if v == 0 {
		v = Version
	}
	if v < MinVersion || v > Version {
		return fmt.Errorf("wire: cannot encode protocol version %d (supported %d..%d)", v, MinVersion, Version)
	}
	if v == 1 && (h.Codec != codec.Identity || h.CodecParam != 0) {
		return fmt.Errorf("wire: version 1 frame cannot carry codec %v param %d", h.Codec, h.CodecParam)
	}
	if h.Flags>>8 != 0 {
		return fmt.Errorf("wire: flags %#04x use the high byte, which carries the codec parameter", h.Flags)
	}
	binary.LittleEndian.PutUint16(buf[0:], Magic)
	buf[2] = v
	buf[3] = byte(h.Type)
	buf[4] = byte(h.Alg)
	buf[5] = byte(h.Codec)
	binary.LittleEndian.PutUint16(buf[6:], h.Flags|uint16(h.CodecParam)<<8)
	binary.LittleEndian.PutUint32(buf[8:], h.Code)
	binary.LittleEndian.PutUint32(buf[12:], h.Count)
	binary.LittleEndian.PutUint64(buf[16:], h.ReqID)
	binary.LittleEndian.PutUint64(buf[24:], h.N)
	binary.LittleEndian.PutUint64(buf[32:], uint64(h.Deadline))
	binary.LittleEndian.PutUint64(buf[40:], h.PayloadLen)
	return nil
}

// ReadHeader decodes one frame header from r, validating magic, version and
// type. Versions MinVersion..Version are accepted; a v1 frame whose
// reserved codec bytes are nonzero is rejected as corrupt. io.EOF is
// returned unwrapped when the stream ends cleanly between frames (the
// normal connection-close signal).
func ReadHeader(r io.Reader) (Header, error) {
	var buf [HeaderLen]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		if err == io.EOF {
			return Header{}, io.EOF
		}
		return Header{}, fmt.Errorf("wire: reading frame header: %w", err)
	}
	if m := binary.LittleEndian.Uint16(buf[0:]); m != Magic {
		return Header{}, fmt.Errorf("wire: bad magic %#04x", m)
	}
	v := buf[2]
	if v < MinVersion || v > Version {
		return Header{}, fmt.Errorf("wire: unsupported protocol version %d (accept %d..%d)", v, MinVersion, Version)
	}
	flags := binary.LittleEndian.Uint16(buf[6:])
	if v == 1 && (buf[5] != 0 || flags>>8 != 0) {
		return Header{}, fmt.Errorf("wire: version 1 frame with nonzero reserved codec bytes (%d, %d)", buf[5], flags>>8)
	}
	h := Header{
		Version:    v,
		Type:       Type(buf[3]),
		Alg:        Alg(buf[4]),
		Codec:      codec.ID(buf[5]),
		CodecParam: byte(flags >> 8),
		Flags:      flags & 0xFF,
		Code:       binary.LittleEndian.Uint32(buf[8:]),
		Count:      binary.LittleEndian.Uint32(buf[12:]),
		ReqID:      binary.LittleEndian.Uint64(buf[16:]),
		N:          binary.LittleEndian.Uint64(buf[24:]),
		Deadline:   int64(binary.LittleEndian.Uint64(buf[32:])),
		PayloadLen: binary.LittleEndian.Uint64(buf[40:]),
	}
	if h.Type < TForward || h.Type > TStatsResult {
		return Header{}, fmt.Errorf("wire: unknown frame type %d", buf[3])
	}
	return h, nil
}

// maxSizeElems bounds n*count so the byte size n*count*BytesPerElem fits
// in an int64 with no intermediate wrap: 2^63 / 16 = 2^59 elements.
const maxSizeElems = math.MaxInt64 / BytesPerElem

// CheckedSize is the trust-boundary size algebra: it turns a header's
// declared geometry (count transforms of n points) into an element count,
// rejecting zero geometry and any product that would overflow the byte
// size n*count*BytesPerElem. Every header-derived size must pass through
// here (or an equivalent bound check) before it reaches an allocation;
// the hostile-geometry tests of serve and client hold both to it.
func CheckedSize(n uint64, count uint32) (int, error) {
	if n == 0 || count == 0 {
		return 0, fmt.Errorf("%w: empty transform geometry n=%d count=%d", ErrBadRequest, n, count)
	}
	if n > maxSizeElems/uint64(count) {
		return 0, fmt.Errorf("%w: transform geometry n=%d count=%d overflows the size limit", ErrBadRequest, n, count)
	}
	return int(n * uint64(count)), nil
}

// CheckTransformPayload validates a transform frame's payload length
// against its declared geometry (count transforms of n points) and codec.
// Identity payloads have exactly one legal length; compressed payloads are
// data-dependent, so the declared length is bounded by the codec size
// algebra from above (codec.MaxEncodedLen) — still a hard allocation cap —
// and from below (codec.MaxElemsForEncoded: a few bytes cannot declare a
// large geometry), and the codec ID/parameter pair must resolve to a codec
// this build understands.
func CheckTransformPayload(h *Header) error {
	elems, err := CheckedSize(h.N, h.Count)
	if err != nil {
		return err
	}
	if h.Codec == codec.Identity {
		if h.CodecParam != 0 {
			return fmt.Errorf("%w: identity payload with codec parameter %d", ErrBadRequest, h.CodecParam)
		}
		want := uint64(elems) * BytesPerElem
		if h.PayloadLen != want {
			return fmt.Errorf("%w: payload %d bytes, geometry needs %d", ErrBadRequest, h.PayloadLen, want)
		}
		return nil
	}
	if _, err := codec.For(h.Codec, h.CodecParam); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if bound := codec.MaxEncodedLen(elems); h.PayloadLen == 0 || h.PayloadLen > bound {
		return fmt.Errorf("%w: %v payload %d bytes outside (0,%d] for %d elements",
			ErrBadRequest, h.Codec, h.PayloadLen, bound, elems)
	}
	// The floor: no encoding of elems elements is that short, so the frame
	// is rejected before its declared geometry sizes a buffer.
	if uint64(elems) > codec.MaxElemsForEncoded(h.PayloadLen) {
		return fmt.Errorf("%w: %v payload %d bytes cannot encode %d elements (at most %d)",
			ErrBadRequest, h.Codec, h.PayloadLen, elems, codec.MaxElemsForEncoded(h.PayloadLen))
	}
	return nil
}

// WriteVector writes x to w as its byte image, on a little-endian host one
// Write of x's own memory. A frame writer behind a buffer uses
// Writer.WriteVectorFrame, which keeps the payload out of the buffer.
func WriteVector(w io.Writer, x []complex128) error {
	if err := cvec.WriteVector(w, x); err != nil {
		return fmt.Errorf("wire: writing payload: %w", err)
	}
	return nil
}

// ReadVector reads len(dst) complex128s from r into dst: on a little-endian
// host one io.ReadFull into dst's own memory.
func ReadVector(r io.Reader, dst []complex128) error {
	if err := cvec.ReadVector(r, dst); err != nil {
		return fmt.Errorf("wire: reading payload: %w", err)
	}
	return nil
}

// discardChunk bounds one CopyN step while skipping a payload.
const discardChunk = 1 << 20

// DiscardPayload skips a frame's payload (used when the receiver no longer
// wants the response, e.g. after a context cancellation). n comes straight
// off the wire, so the skip is chunked: a hostile length ≥ 2^63 must not
// reach io.CopyN as a negative count (which would silently skip nothing
// and desync the stream). Callers still decide how much discarding they
// will tolerate before hanging up — the loop is bounded only by n.
func DiscardPayload(r io.Reader, n uint64) error {
	for n > 0 {
		c := n
		if c > discardChunk {
			c = discardChunk
		}
		if _, err := io.CopyN(io.Discard, r, int64(c)); err != nil {
			return err
		}
		n -= c
	}
	return nil
}

// Writer is a connection's buffered frame writer: a bufio.Writer over the
// connection that keeps the connection too, so a frame too large for the
// buffer can pass it by. Frames that fit are gathered in the buffer and
// leave together on Flush; a larger one leaves as one net.Buffers write of
// its header and payload — one writev(2) on a socket, with the payload
// taken from the caller's memory, not copied through the buffer.
type Writer struct {
	*bufio.Writer
	conn io.Writer
	// A large frame's header and write list, held here so that sending
	// one allocates nothing.
	hdr  [HeaderLen]byte
	vec  [2][]byte
	bufs net.Buffers
}

// NewWriter returns a Writer on conn with a size-byte buffer.
func NewWriter(conn io.Writer, size int) *Writer {
	return &Writer{Writer: bufio.NewWriterSize(conn, size), conn: conn}
}

// WriteFrame writes a frame of header h and payload, which must be
// h.PayloadLen bytes. A frame larger than the buffer first flushes the
// frames buffered ahead of it, then goes out in one write.
func (w *Writer) WriteFrame(h *Header, payload []byte) error {
	if HeaderLen+len(payload) <= w.Size() {
		if err := WriteHeader(w, h); err != nil {
			return err
		}
		_, err := w.Write(payload)
		return err
	}
	if err := putHeader(&w.hdr, h); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	w.vec = [2][]byte{w.hdr[:], payload}
	w.bufs = w.vec[:]
	_, err := w.bufs.WriteTo(w.conn)
	w.vec[1] = nil // the payload may be pooled staging
	return err
}

// WriteVectorFrame writes a frame of header h and x's byte image as its
// identity payload: WriteFrame of x's own memory where cvec.View has it.
func (w *Writer) WriteVectorFrame(h *Header, x []complex128) error {
	if b, ok := cvec.View(x); ok {
		return w.WriteFrame(h, b)
	}
	if err := WriteHeader(w, h); err != nil {
		return err
	}
	return WriteVector(w, x)
}

// WriteResultCodec writes a TResult frame carrying x (count transforms of
// len(x)/count points each) at the given protocol version (0 = current; a
// responder passes the request's version so a v1 peer can read the reply),
// and reports whether the payload went out encoded. Under a compressing
// codec c, x is encoded into a pooled staging buffer — a length-prefixed
// frame must know its payload's length before the first byte leaves — if
// its first block pays (codec.AppendVectorIfSmaller). Otherwise, and under
// a nil or identity codec, the frame carries x raw under an identity
// header: raw output is exact, so it is within any codec's tolerance.
func WriteResultCodec(w *Writer, version byte, reqID uint64, count int, x []complex128, c codec.Codec) (encoded bool, err error) {
	h := Header{
		Version: version,
		Type:    TResult,
		Count:   uint32(count),
		ReqID:   reqID,
		N:       uint64(len(x) / count),
	}
	if c != nil && c.ID() != codec.Identity {
		st := codec.BorrowStaging(len(x))
		defer codec.ReturnStaging(st)
		if enc, ok := codec.AppendVectorIfSmaller(*st, c, x); ok {
			h.Codec = c.ID()
			h.CodecParam = codec.Param(c)
			h.PayloadLen = uint64(len(enc))
			return true, w.WriteFrame(&h, enc)
		}
	}
	h.PayloadLen = uint64(len(x)) * BytesPerElem
	return false, w.WriteVectorFrame(&h, x)
}

// WriteError writes a TError frame for err (code via CodeFor, message is
// err's text) at the current protocol version.
func WriteError(w io.Writer, reqID uint64, err error) error {
	return WriteErrorVersion(w, 0, reqID, err)
}

// WriteErrorVersion is WriteError at an explicit protocol version (0 =
// current); a responder echoes the request's version so a v1 peer can read
// the error frame.
func WriteErrorVersion(w io.Writer, version byte, reqID uint64, err error) error {
	msg := []byte(err.Error())
	h := Header{
		Version:    version,
		Type:       TError,
		Code:       CodeFor(err),
		ReqID:      reqID,
		PayloadLen: uint64(len(msg)),
	}
	if werr := WriteHeader(w, &h); werr != nil {
		return werr
	}
	_, werr := w.Write(msg)
	return werr
}

// maxTextLen bounds TError / TStatsResult payloads a receiver will buffer.
const maxTextLen = 1 << 20

// ReadText reads a text payload (TError message, TStatsResult body).
func ReadText(r io.Reader, n uint64) (string, error) {
	if n > maxTextLen {
		return "", fmt.Errorf("wire: text payload %d bytes exceeds limit %d", n, maxTextLen)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", fmt.Errorf("wire: reading text payload: %w", err)
	}
	return string(b), nil
}

// WriteStatsResult writes a TStatsResult frame carrying the metrics text
// at the current protocol version.
func WriteStatsResult(w io.Writer, reqID uint64, text string) error {
	return WriteStatsResultVersion(w, 0, reqID, text)
}

// WriteStatsResultVersion is WriteStatsResult at an explicit protocol
// version (0 = current), for echoing a v1 request's version.
func WriteStatsResultVersion(w io.Writer, version byte, reqID uint64, text string) error {
	h := Header{
		Version:    version,
		Type:       TStatsResult,
		ReqID:      reqID,
		PayloadLen: uint64(len(text)),
	}
	if err := WriteHeader(w, &h); err != nil {
		return err
	}
	_, err := io.WriteString(w, text)
	return err
}
