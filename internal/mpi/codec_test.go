package mpi

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"soifft/internal/codec"
	"soifft/internal/ref"
)

// TestWithCodecRoundTrip sends vectors of every shape the transports carry —
// empty, odd lengths, multi-block, IEEE-754 specials — through a
// codec-wrapped world and checks lossless bit-exactness (or the declared
// tolerance for the quantizer).
func TestWithCodecRoundTrip(t *testing.T) {
	specials := []complex128{
		complex(math.NaN(), math.Inf(1)),
		complex(math.Inf(-1), 0),
		complex(5e-324, -5e-324), // denormals
		complex(-0.0, 1.5),
	}
	vectors := [][]complex128{
		nil,
		ref.RandomVector(1, 1),
		ref.RandomVector(17, 2),
		ref.RandomVector(codec.BlockElems+3, 3), // spans two blocks
		specials,
	}
	for _, cid := range []codec.ID{codec.DeltaPlane, codec.Quant} {
		var cdc codec.Codec
		if cid == codec.Quant {
			cdc, _ = codec.NewQuant(1e-9)
		} else {
			cdc = codec.MustFor(cid, 0)
		}
		w, err := NewWorld(2)
		if err != nil {
			t.Fatal(err)
		}
		a, b := WithCodec(w.Comm(0), cdc), WithCodec(w.Comm(1), cdc)
		for vi, x := range vectors {
			if err := a.Send(1, 7, x); err != nil {
				t.Fatalf("%s send vec %d: %v", cdc.Name(), vi, err)
			}
			got, err := b.Recv(0, 7)
			if err != nil {
				t.Fatalf("%s recv vec %d: %v", cdc.Name(), vi, err)
			}
			if len(got) != len(x) {
				t.Fatalf("%s vec %d: len=%d, want %d", cdc.Name(), vi, len(got), len(x))
			}
			tol := codec.Tolerance(cdc)
			for i := range x {
				checkComponent(t, cdc, tol, real(x[i]), real(got[i]))
				checkComponent(t, cdc, tol, imag(x[i]), imag(got[i]))
			}
		}
		w.Close()
	}
}

func checkComponent(t *testing.T, c codec.Codec, tol, want, got float64) {
	t.Helper()
	finiteNormal := want == want && !math.IsInf(want, 0) &&
		(want == 0 || math.Abs(want) >= 0x1p-1022)
	if c.Lossless() || !finiteNormal {
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("%s: %x -> %x, want bit-exact", c.Name(), math.Float64bits(want), math.Float64bits(got))
		}
		return
	}
	if d := math.Abs(want - got); want != 0 && d/math.Abs(want) > tol {
		t.Fatalf("%s: %g -> %g, rel err %g > tol %g", c.Name(), want, got, d/math.Abs(want), tol)
	}
}

// TestWithCodecIdentityUnwrapped: wrapping with identity (or nil) is free.
func TestWithCodecIdentityUnwrapped(t *testing.T) {
	w, err := NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	inner := w.Comm(0)
	if got := WithCodec(inner, nil); got != inner {
		t.Error("WithCodec(nil) wrapped")
	}
	if got := WithCodec(inner, codec.MustFor(codec.Identity, 0)); got != inner {
		t.Error("WithCodec(identity) wrapped")
	}
}

// TestWithCodecCollectives runs the generic collectives over a codec-wrapped
// world: the wrapper must be transparent to AllToAll / AllToAllInto /
// Barrier, which carry both data and tiny control payloads. The ranks run
// under Run, so a rank that fails aborts its peers instead of leaving them
// blocked in the next collective.
func TestWithCodecCollectives(t *testing.T) {
	const size = 4
	cdc := codec.MustFor(codec.DeltaPlane, 0)
	err := Run(size, func(raw Comm) error {
		c := WithCodec(raw, cdc)
		r := c.Rank()
		send := make([][]complex128, size)
		for q := range send {
			send[q] = []complex128{complex(float64(r), float64(q))}
		}
		recv, err := AllToAll(c, send)
		if err != nil {
			return err
		}
		for s := range recv {
			if len(recv[s]) != 1 || recv[s][0] != complex(float64(s), float64(r)) {
				return fmt.Errorf("rank %d: alltoall from %d got %v", r, s, recv[s])
			}
		}
		// Blocks of several lengths, each a random vector the receiver can
		// rebuild from (sender, receiver).
		into := make([][]complex128, size)
		for q := range send {
			send[q] = ref.RandomVector(3+q, int64(10*r+q))
			into[q] = make([]complex128, 3+r)
		}
		if err := AllToAllInto(c, send, into); err != nil {
			return err
		}
		for s := range into {
			want := ref.RandomVector(3+r, int64(10*s+r))
			for i := range want {
				if into[s][i] != want[i] {
					return fmt.Errorf("rank %d: alltoall-into from %d elem %d %v != %v", r, s, i, into[s][i], want[i])
				}
			}
		}
		return Barrier(c)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWithCodecHostilePayloads injects raw (unencoded or tampered) messages
// under a codec-wrapped receiver: every case must fail with a
// *TransportError wrapping codec.ErrCorrupt — never a silent wrong answer,
// a huge allocation, or a hang.
func TestWithCodecHostilePayloads(t *testing.T) {
	cdc := codec.MustFor(codec.DeltaPlane, 0)
	x := ref.RandomVector(64, 5)
	enc := codec.AppendVector(nil, cdc, x)
	goodMsg := func() []complex128 {
		msg := make([]complex128, 1+(len(enc)+15)/16)
		msg[0] = complex(float64(len(x)), float64(len(enc)))
		packBytes(msg[1:], enc)
		return msg
	}

	cases := []struct {
		name string
		msg  []complex128
	}{
		{"empty message", nil},
		{"raw uncompressed vector", ref.RandomVector(8, 1)},
		{"negative element count", func() []complex128 {
			m := goodMsg()
			m[0] = complex(-1, imag(m[0]))
			return m
		}()},
		{"non-integral framing", func() []complex128 {
			m := goodMsg()
			m[0] = complex(real(m[0])+0.5, imag(m[0]))
			return m
		}()},
		{"element count over stream bound", func() []complex128 {
			m := goodMsg()
			m[0] = complex(1e9, imag(m[0]))
			return m
		}()},
		{"huge element count", func() []complex128 {
			m := goodMsg()
			m[0] = complex(1e18, imag(m[0]))
			return m
		}()},
		{"byte length beyond packed words", func() []complex128 {
			m := goodMsg()
			m[0] = complex(real(m[0]), imag(m[0])+64)
			return m
		}()},
		{"flipped stream byte", func() []complex128 {
			bad := append([]byte(nil), enc...)
			bad[len(bad)/2] ^= 0x04
			m := make([]complex128, 1+(len(bad)+15)/16)
			m[0] = complex(float64(len(x)), float64(len(bad)))
			packBytes(m[1:], bad)
			return m
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := NewWorld(2)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if err := w.Comm(0).Send(1, 3, tc.msg); err != nil { // raw inject, bypassing the encoder
				t.Fatal(err)
			}
			rx := WithCodec(w.Comm(1), cdc)
			_, err = rx.(DeadlineRecver).RecvDeadline(0, 3, time.Now().Add(5*time.Second))
			var te *TransportError
			if !errors.As(err, &te) || !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("hostile recv: %v, want *TransportError wrapping codec.ErrCorrupt", err)
			}
		})
	}

	// The well-formed message still decodes after all that.
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Comm(0).Send(1, 3, goodMsg()); err != nil {
		t.Fatal(err)
	}
	got, err := WithCodec(w.Comm(1), cdc).Recv(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if got[i] != x[i] {
			t.Fatalf("control message elem %d: %v != %v", i, got[i], x[i])
		}
	}
}

// TestWithCodecDeadline: the wrapper forwards per-op deadlines, so a
// receive with no sender resolves to ErrTimeout instead of hanging.
func TestWithCodecDeadline(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c := WithCodec(w.Comm(0), codec.MustFor(codec.DeltaPlane, 0))
	_, err = c.(DeadlineRecver).RecvDeadline(1, 1, time.Now().Add(10*time.Millisecond))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("deadline recv: %v, want ErrTimeout", err)
	}
}
