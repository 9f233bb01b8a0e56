package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"soifft/internal/codec"
	"soifft/internal/ref"
)

func TestHeaderRoundTrip(t *testing.T) {
	deadline := time.Now().Add(time.Second).UnixNano()
	for _, h := range []Header{
		{Type: TForward, Alg: AlgAuto, Count: 1, ReqID: 7, N: 1024, Deadline: deadline, PayloadLen: 1024 * BytesPerElem},
		{Type: TInverse, Alg: AlgSOI, Count: 1, ReqID: 1<<64 - 1, N: 448, PayloadLen: 448 * BytesPerElem},
		{Type: TBatch, Alg: AlgExact, Flags: FlagInverse, Count: 16, ReqID: 0, N: 64, PayloadLen: 16 * 64 * BytesPerElem},
		{Type: TStats, ReqID: 3},
		{Type: TResult, Count: 2, ReqID: 9, N: 8, PayloadLen: 2 * 8 * BytesPerElem},
		{Type: TError, Code: CodeOverloaded, ReqID: 5, PayloadLen: 10},
		{Type: TStatsResult, ReqID: 6, PayloadLen: 20},
		// Version 1 is still encodable (the compat path) and round-trips.
		{Version: 1, Type: TForward, Count: 1, ReqID: 11, N: 64, PayloadLen: 64 * BytesPerElem},
		// Version 2 codec headers carry the codec ID and parameter.
		{Type: TForward, Codec: codec.DeltaPlane, Count: 1, ReqID: 12, N: 64, PayloadLen: 99},
		{Type: TBatch, Codec: codec.Quant, CodecParam: 30, Flags: FlagInverse, Count: 2, ReqID: 13, N: 64, PayloadLen: 99},
	} {
		var buf bytes.Buffer
		if err := WriteHeader(&buf, &h); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != HeaderLen {
			t.Fatalf("header %v encodes to %d bytes, want %d", h.Type, buf.Len(), HeaderLen)
		}
		got, err := ReadHeader(&buf)
		if err != nil {
			t.Fatalf("%v: %v", h.Type, err)
		}
		want := h
		if want.Version == 0 {
			want.Version = Version
		}
		if got != want {
			t.Errorf("round trip of %+v gave %+v", want, got)
		}
	}
}

func TestHeaderVersionRules(t *testing.T) {
	// A v1 header cannot carry a codec or codec parameter.
	for _, h := range []Header{
		{Version: 1, Type: TForward, Codec: codec.DeltaPlane, Count: 1, N: 8, PayloadLen: 1},
		{Version: 1, Type: TForward, CodecParam: 9, Count: 1, N: 8, PayloadLen: 1},
		{Version: 9, Type: TForward, Count: 1, N: 8, PayloadLen: 1},
		{Type: TForward, Flags: 0x0200, Count: 1, N: 8, PayloadLen: 1}, // flags high byte is the codec param's
	} {
		if err := WriteHeader(io.Discard, &h); err == nil {
			t.Errorf("WriteHeader accepted %+v", h)
		}
	}

	// On the read side, a v1 frame with nonzero reserved codec bytes is
	// corruption, not negotiation.
	frame := func(mut func(b []byte)) []byte {
		var buf bytes.Buffer
		h := Header{Type: TForward, Count: 1, N: 8, PayloadLen: 8 * BytesPerElem}
		if err := WriteHeader(&buf, &h); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes()
		mut(b)
		return b
	}
	v1codec := frame(func(b []byte) { b[2] = 1; b[5] = byte(codec.DeltaPlane) })
	if _, err := ReadHeader(bytes.NewReader(v1codec)); err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Errorf("v1 frame with codec byte: %v", err)
	}
	v1param := frame(func(b []byte) { b[2] = 1; b[7] = 30 })
	if _, err := ReadHeader(bytes.NewReader(v1param)); err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Errorf("v1 frame with codec param byte: %v", err)
	}
	// The same codec byte under v2 is a legal codec header.
	v2codec := frame(func(b []byte) { b[5] = byte(codec.DeltaPlane) })
	if h, err := ReadHeader(bytes.NewReader(v2codec)); err != nil || h.Codec != codec.DeltaPlane {
		t.Errorf("v2 codec frame: %+v, %v", h, err)
	}
}

func TestHeaderInverse(t *testing.T) {
	if !(&Header{Type: TInverse}).Inverse() {
		t.Error("TInverse not inverse")
	}
	if (&Header{Type: TForward}).Inverse() {
		t.Error("TForward inverse")
	}
	if !(&Header{Type: TBatch, Flags: FlagInverse}).Inverse() {
		t.Error("flagged TBatch not inverse")
	}
	if (&Header{Type: TBatch}).Inverse() {
		t.Error("unflagged TBatch inverse")
	}
}

func TestReadHeaderRejects(t *testing.T) {
	good := func() []byte {
		var buf bytes.Buffer
		h := Header{Type: TForward, Count: 1, N: 8, PayloadLen: 8 * BytesPerElem}
		if err := WriteHeader(&buf, &h); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	b := good()
	b[0] ^= 0xFF // corrupt magic
	if _, err := ReadHeader(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: %v", err)
	}

	b = good()
	b[2] = 99 // future version
	if _, err := ReadHeader(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("bad version: %v", err)
	}

	b = good()
	b[3] = 200 // unknown type
	if _, err := ReadHeader(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "type") {
		t.Errorf("bad type: %v", err)
	}

	// Clean EOF between frames is io.EOF, not an error wrapper.
	if _, err := ReadHeader(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream: %v, want io.EOF", err)
	}
	// A truncated header is a protocol error, not clean EOF.
	if _, err := ReadHeader(bytes.NewReader(good()[:10])); err == io.EOF || err == nil {
		t.Errorf("truncated header: %v", err)
	}
}

func TestCheckedSize(t *testing.T) {
	const maxU64 = 1<<64 - 1
	ok := []struct {
		n     uint64
		count uint32
		want  int
	}{
		{8, 2, 16},
		{1, 1, 1},
		{maxSizeElems, 1, maxSizeElems}, // exactly the element limit (2^59-1)
		{maxSizeElems / 7, 7, (maxSizeElems / 7) * 7},
	}
	for _, c := range ok {
		got, err := CheckedSize(c.n, c.count)
		if err != nil || got != c.want {
			t.Errorf("CheckedSize(%d, %d) = %d, %v; want %d, nil", c.n, c.count, got, err, c.want)
		}
	}
	bad := []struct {
		n     uint64
		count uint32
		why   string
	}{
		{0, 1, "zero n"},
		{8, 0, "zero count"},
		{0, 0, "all zero"},
		{maxU64, 1, "n alone above the element limit"},
		{maxSizeElems + 1, 1, "one past the element limit"},
		{maxSizeElems, 2, "product one doubling past the limit"},
		{1<<62 + 1, 4, "wrap-consistent product (wraps to 4 mod 2^64)"},
		{1 << 32, 1 << 31, "product exactly 2^63 (byte size wraps int64)"},
		{maxU64, 1<<32 - 1, "both operands at type max"},
	}
	for _, c := range bad {
		got, err := CheckedSize(c.n, c.count)
		if !errors.Is(err, ErrBadRequest) || got != 0 {
			t.Errorf("CheckedSize(%d, %d) [%s] = %d, %v; want 0, ErrBadRequest", c.n, c.count, c.why, got, err)
		}
	}
}

func TestCheckTransformPayload(t *testing.T) {
	for _, h := range []Header{
		{Type: TBatch, Count: 3, N: 64, PayloadLen: 3 * 64 * BytesPerElem},
		// Compressed payloads: any length from the floor that
		// codec.MaxElemsForEncoded sets (64 elements need at least 8 bytes)
		// to MaxEncodedLen is plausible, and the most compact real stream,
		// all zeros, clears the floor.
		{Type: TForward, Codec: codec.DeltaPlane, Count: 1, N: 64, PayloadLen: 8},
		{Type: TBatch, Codec: codec.DeltaPlane, Count: 4, N: 1 << 16, PayloadLen: uint64(len(codec.AppendVector(nil, codec.MustFor(codec.DeltaPlane, 0), make([]complex128, 4<<16))))},
		{Type: TForward, Codec: codec.DeltaPlane, Count: 1, N: 64, PayloadLen: codec.MaxEncodedLen(64)},
		{Type: TBatch, Codec: codec.Quant, CodecParam: 30, Count: 3, N: 64, PayloadLen: 200},
	} {
		if err := CheckTransformPayload(&h); err != nil {
			t.Errorf("header %+v: %v", h, err)
		}
	}
	for _, h := range []Header{
		{Type: TForward, Count: 1, N: 0, PayloadLen: 0},
		{Type: TForward, Count: 0, N: 64, PayloadLen: 64 * BytesPerElem},
		{Type: TForward, Count: 1, N: 64, PayloadLen: 64*BytesPerElem - 1},
		{Type: TBatch, Count: 2, N: 64, PayloadLen: 64 * BytesPerElem},
		// Wrap-consistent forgery: N*Count*BytesPerElem mod 2^64 equals the
		// tiny PayloadLen, so a modular check would admit a huge allocation.
		{Type: TBatch, Count: 4, N: 1<<62 + 1, PayloadLen: 64},
		{Type: TForward, Count: 1, N: 1<<64 - 1, PayloadLen: 1<<64 - BytesPerElem},
		// Codec-aware rejections: identity with a stray parameter, a codec
		// payload above the size-algebra bound, under its floor or empty, an
		// unknown codec ID, and a Quant header whose drop-bits parameter is
		// out of range.
		{Type: TForward, CodecParam: 9, Count: 1, N: 64, PayloadLen: 64 * BytesPerElem},
		{Type: TForward, Codec: codec.DeltaPlane, Count: 1, N: 64, PayloadLen: codec.MaxEncodedLen(64) + 1},
		{Type: TForward, Codec: codec.DeltaPlane, Count: 1, N: 64, PayloadLen: 7},
		{Type: TBatch, Codec: codec.DeltaPlane, Count: 4, N: 1 << 16, PayloadLen: 1},
		{Type: TForward, Codec: codec.DeltaPlane, Count: 1, N: 64, PayloadLen: 0},
		{Type: TForward, Codec: codec.ID(9), Count: 1, N: 64, PayloadLen: 64},
		{Type: TForward, Codec: codec.Quant, CodecParam: 0, Count: 1, N: 64, PayloadLen: 64},
		{Type: TForward, Codec: codec.Quant, CodecParam: 77, Count: 1, N: 64, PayloadLen: 64},
	} {
		if err := CheckTransformPayload(&h); !errors.Is(err, ErrBadRequest) {
			t.Errorf("header %+v: %v, want ErrBadRequest", h, err)
		}
	}
}

// TestVectorRoundTrip: on both byte-image paths (the vector's own memory,
// and the byte-order loops with their 4096-element scratch), WriteVector
// writes the little-endian IEEE-754 image of every bit pattern (±0, ±Inf,
// NaN payloads, denormals) and ReadVector restores it exactly, whatever
// sizes the reads arrive in.
func TestVectorRoundTrip(t *testing.T) {
	eachImagePath(t, func(t *testing.T) {
		for _, n := range []int{0, 1, 3, 4095, 4096, 4101, 3*4096 + 17} {
			x := append(ref.RandomVector(n/2, int64(n)), specialVector(n-n/2)...)
			var buf bytes.Buffer
			if err := WriteVector(&buf, x); err != nil {
				t.Fatal(err)
			}
			want := referenceImage(x)
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("n=%d: payload differs from the little-endian image", n)
			}
			for name, rd := range map[string]func(io.Reader) io.Reader{
				"whole":    func(r io.Reader) io.Reader { return r },
				"one byte": iotest.OneByteReader,
				"half":     iotest.HalfReader,
			} {
				got := make([]complex128, n)
				if err := ReadVector(rd(bytes.NewReader(want)), got); err != nil {
					t.Fatalf("n=%d, %s reads: %v", n, name, err)
				}
				for i := range x {
					if math.Float64bits(real(x[i])) != math.Float64bits(real(got[i])) ||
						math.Float64bits(imag(x[i])) != math.Float64bits(imag(got[i])) {
						t.Fatalf("n=%d, %s reads: element %d: %v != %v", n, name, i, got[i], x[i])
					}
				}
			}
		}
	})
}

func TestReadVectorTruncated(t *testing.T) {
	x := ref.RandomVector(100, 1)
	var buf bytes.Buffer
	if err := WriteVector(&buf, x); err != nil {
		t.Fatal(err)
	}
	got := make([]complex128, 101)
	if err := ReadVector(bytes.NewReader(buf.Bytes()), got); err == nil {
		t.Error("short payload accepted")
	}
}

func TestErrorFrameRoundTrip(t *testing.T) {
	for _, base := range []error{ErrOverloaded, ErrDeadlineExceeded, ErrShuttingDown, ErrBadRequest, ErrInternal} {
		var buf bytes.Buffer
		if err := WriteError(&buf, 42, base); err != nil {
			t.Fatal(err)
		}
		h, err := ReadHeader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if h.Type != TError || h.ReqID != 42 {
			t.Fatalf("header %+v", h)
		}
		msg, err := ReadText(&buf, h.PayloadLen)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt := ErrFor(h.Code, msg)
		if !errors.Is(rebuilt, base) {
			t.Errorf("code %d message %q rebuilt to %v, want errors.Is %v", h.Code, msg, rebuilt, base)
		}
	}
}

func TestErrForDetail(t *testing.T) {
	err := ErrFor(CodeOverloaded, "queue depth 256")
	if !errors.Is(err, ErrOverloaded) || !strings.Contains(err.Error(), "queue depth 256") {
		t.Errorf("got %v", err)
	}
	if got := ErrFor(CodeOverloaded, ""); got != ErrOverloaded {
		t.Errorf("empty message should return the sentinel, got %v", got)
	}
	if !errors.Is(ErrFor(999, "x"), ErrInternal) {
		t.Error("unknown code should map to ErrInternal")
	}
}

func TestCodeForUnknown(t *testing.T) {
	if CodeFor(errors.New("whatever")) != CodeInternal {
		t.Error("unrecognized errors must map to CodeInternal")
	}
	if CodeFor(ErrOverloaded) != CodeOverloaded {
		t.Error("ErrOverloaded code")
	}
}

func TestStatsResultRoundTrip(t *testing.T) {
	text := "soifftd_requests_total 12\nsoifftd_mean_batch_size 3.5\n"
	var buf bytes.Buffer
	if err := WriteStatsResult(&buf, 17, text); err != nil {
		t.Fatal(err)
	}
	h, err := ReadHeader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != TStatsResult || h.ReqID != 17 {
		t.Fatalf("header %+v", h)
	}
	got, err := ReadText(&buf, h.PayloadLen)
	if err != nil {
		t.Fatal(err)
	}
	if got != text {
		t.Errorf("got %q", got)
	}
}

func TestReadTextLimit(t *testing.T) {
	if _, err := ReadText(bytes.NewReader(nil), maxTextLen+1); err == nil {
		t.Error("oversized text accepted")
	}
}

func TestWriteResultGeometry(t *testing.T) {
	x := ref.RandomVector(32, 2)
	var buf bytes.Buffer
	w := NewWriter(&buf, 4096)
	if _, err := WriteResultCodec(w, 0, 8, 4, x, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	h, err := ReadHeader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != TResult || h.N != 8 || h.Count != 4 || h.PayloadLen != 32*BytesPerElem {
		t.Fatalf("header %+v", h)
	}
	got := make([]complex128, 32)
	if err := ReadVector(&buf, got); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if got[i] != x[i] {
			t.Fatal("payload mismatch")
		}
	}
}
