package client

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"soifft/internal/codec"
	"soifft/internal/ref"
	"soifft/internal/wire"
)

// forgedBytesPeer is forgedPeer with byte-level control of the response
// payload, for handing the demultiplexer compressed streams of our choosing.
func forgedBytesPeer(t *testing.T, forge func(req wire.Header) (wire.Header, []byte)) *Client {
	t.Helper()
	cs, ss := net.Pipe()
	go func() {
		for {
			h, err := wire.ReadHeader(ss)
			if err != nil {
				return
			}
			if err := wire.DiscardPayload(ss, h.PayloadLen); err != nil {
				return
			}
			rh, payload := forge(h)
			if err := wire.WriteHeader(ss, &rh); err != nil {
				return
			}
			if len(payload) > 0 {
				if _, err := ss.Write(payload); err != nil {
					return
				}
			}
		}
	}()
	cl := New(cs)
	cl.SetIOTimeout(2 * time.Second)
	t.Cleanup(func() {
		cl.Close()
		ss.Close()
	})
	return cl
}

// TestForgedCorruptCodecResponse: a compressed response whose block stream
// fails validation (checksum mismatch) must fail the caller with the typed
// codec corruption error and tear the connection down — the stream position
// inside the declared payload is unknowable, so no resync is possible.
func TestForgedCorruptCodecResponse(t *testing.T) {
	const n = 64
	dp := codec.MustFor(codec.DeltaPlane, 0)
	cl := forgedBytesPeer(t, func(req wire.Header) (wire.Header, []byte) {
		enc := codec.AppendVector(nil, dp, ref.RandomVector(n, 11))
		enc[len(enc)/2] ^= 0x01
		return wire.Header{
			Type: wire.TResult, ReqID: req.ReqID, Count: 1, N: n,
			Codec: codec.DeltaPlane, PayloadLen: uint64(len(enc)),
		}, enc
	})

	src := make([]complex128, n)
	dst := make([]complex128, n)
	err := cl.Forward(context.Background(), dst, src)
	if !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("Forward against corrupt compressed response: %v, want codec.ErrCorrupt", err)
	}
	if err := cl.Forward(context.Background(), dst, src); !errors.Is(err, ErrClosed) {
		t.Errorf("Forward after corrupt compressed response: %v, want ErrClosed", err)
	}
}

// TestForgedBadCodecHeader: response headers with an unknown codec ID, a
// parameter on the identity codec, or a payload beyond the codec size bound
// are protocol violations caught before any read is sized from them.
func TestForgedBadCodecHeader(t *testing.T) {
	const n = 64
	for _, tc := range []struct {
		name string
		resp wire.Header
	}{
		{"unknown codec ID", wire.Header{Type: wire.TResult, Count: 1, N: n,
			Codec: codec.ID(9), PayloadLen: 128}},
		{"quant param zero", wire.Header{Type: wire.TResult, Count: 1, N: n,
			Codec: codec.Quant, PayloadLen: 128}},
		{"payload over codec bound", wire.Header{Type: wire.TResult, Count: 1, N: n,
			Codec: codec.DeltaPlane, PayloadLen: codec.MaxEncodedLen(n) + 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := forgedBytesPeer(t, func(req wire.Header) (wire.Header, []byte) {
				rh := tc.resp
				rh.ReqID = req.ReqID
				return rh, nil
			})
			src := make([]complex128, n)
			dst := make([]complex128, n)
			err := cl.Forward(context.Background(), dst, src)
			if err == nil || !strings.Contains(err.Error(), "invalid response geometry") {
				t.Fatalf("Forward against %s: %v, want invalid-geometry error", tc.name, err)
			}
			if err := cl.Forward(context.Background(), dst, src); !errors.Is(err, ErrClosed) {
				t.Errorf("Forward after %s: %v, want ErrClosed", tc.name, err)
			}
		})
	}
}

// TestClientDecodesClampedResponse: the client asked for one lossy fidelity
// but the server answered at another (its budget clamp) — the response
// stream is self-describing, so the client decodes what actually arrived.
func TestClientDecodesClampedResponse(t *testing.T) {
	const n = 64
	want := ref.RandomVector(n, 13)
	clamped, err := codec.NewQuantBits(4) // much finer than the request below
	if err != nil {
		t.Fatal(err)
	}
	cl := forgedBytesPeer(t, func(req wire.Header) (wire.Header, []byte) {
		enc := codec.AppendVector(nil, clamped, want)
		return wire.Header{
			Type: wire.TResult, ReqID: req.ReqID, Count: 1, N: n,
			Codec: codec.Quant, CodecParam: codec.Param(clamped), PayloadLen: uint64(len(enc)),
		}, enc
	})
	if err := cl.SetCodec("quant", 1e-3); err != nil {
		t.Fatal(err)
	}
	dst := make([]complex128, n)
	if err := cl.Forward(context.Background(), dst, want); err != nil {
		t.Fatalf("Forward with clamped response: %v", err)
	}
	tol := codec.Tolerance(clamped)
	for i := range dst {
		if r := relDiff(real(want[i]), real(dst[i])); r > tol {
			t.Fatalf("elem %d real: rel diff %g > clamped tol %g", i, r, tol)
		}
		if r := relDiff(imag(want[i]), imag(dst[i])); r > tol {
			t.Fatalf("elem %d imag: rel diff %g > clamped tol %g", i, r, tol)
		}
	}
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if m < 0 {
		m = -m
	}
	if m == 0 {
		return d
	}
	return d / m
}

// TestClientDecodesRawFallback: a server answers a compressed request raw
// when the response's first block does not pay (wire.WriteResultCodec), so
// a client under a codec reads a v2 identity frame — and decodes it, like
// the encoded answer beside it, bit for bit.
func TestClientDecodesRawFallback(t *testing.T) {
	const n = 28672
	noise := ref.RandomVector(n, 17)
	smooth := make([]complex128, n)
	for i := range smooth {
		s, c := math.Sincos(2 * math.Pi * 3 * float64(i) / n)
		smooth[i] = complex(c, 0.5*s)
	}
	dp := codec.MustFor(codec.DeltaPlane, 0)
	for _, tc := range []struct {
		name    string
		resp    []complex128
		encoded bool
	}{{"noise", noise, false}, {"smooth", smooth, true}} {
		t.Run(tc.name, func(t *testing.T) {
			cl := forgedBytesPeer(t, func(req wire.Header) (wire.Header, []byte) {
				var frame bytes.Buffer
				w := wire.NewWriter(&frame, 64<<10)
				encoded, err := wire.WriteResultCodec(w, req.Version, req.ReqID, 1, tc.resp, dp)
				if err == nil {
					err = w.Flush()
				}
				h, herr := wire.ReadHeader(&frame)
				switch {
				case err != nil || herr != nil:
					t.Errorf("writing the response: %v, %v", err, herr)
				case encoded != tc.encoded:
					t.Errorf("response encoded %v, want %v", encoded, tc.encoded)
				case !encoded && (h.Version != 2 || h.Codec != codec.Identity || h.CodecParam != 0 || h.PayloadLen != n*wire.BytesPerElem):
					t.Errorf("fallback header %+v, want a v2 identity frame of %d bytes", h, n*wire.BytesPerElem)
				}
				return h, frame.Bytes()
			})
			if err := cl.SetCodec("deltaplane", 0); err != nil {
				t.Fatal(err)
			}
			dst := make([]complex128, n)
			if err := cl.Forward(context.Background(), dst, noise); err != nil {
				t.Fatal(err)
			}
			for i := range dst {
				if math.Float64bits(real(dst[i])) != math.Float64bits(real(tc.resp[i])) ||
					math.Float64bits(imag(dst[i])) != math.Float64bits(imag(tc.resp[i])) {
					t.Fatalf("elem %d: %v, sent %v", i, dst[i], tc.resp[i])
				}
			}
		})
	}
}
