package faultcomm

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"soifft/internal/codec"
	"soifft/internal/mpi"
)

// The codec sweep: the fault sweep's programs re-run with every payload
// codec layered over the fault-injecting endpoint (codec outermost, the
// stacking WithCodec documents). Two properties are on trial:
//
//   - Transparency: under the survivable fault kinds, a compressed run obeys
//     the same no-hang invariant as a raw one — correct verified results or
//     typed errors, never a hang.
//
//   - Detection: tampering, which the raw envelope cannot detect (the
//     harness's intentionally unsurvivable shape, caught only by the result
//     verifier), becomes a DETECTED fault under compression — the block
//     checksums and framing validation turn every corrupted payload into a
//     typed *TransportError wrapping codec.ErrCorrupt before it can reach a
//     verifier as a silently wrong answer.

// sweepCodecs returns the non-identity codecs the sweep runs under. The
// quantizer's tolerance sits far below every program's verification
// threshold (exact small integers quantize exactly; SOI verifies at 1e-6).
func sweepCodecs(t *testing.T) []codec.Codec {
	t.Helper()
	q, err := codec.NewQuant(1e-12)
	if err != nil {
		t.Fatal(err)
	}
	return []codec.Codec{codec.MustFor(codec.DeltaPlane, 0), q}
}

// TestFaultSweepWithCodec: survivable fault kinds x codecs x programs.
func TestFaultSweepWithCodec(t *testing.T) {
	progs := sweepPrograms(t)
	kinds := []Kind{KindDrop, KindDelay, KindDup, KindReorder, KindCrash}
	for _, cdc := range sweepCodecs(t) {
		for _, kind := range kinds {
			for _, prog := range progs {
				name := fmt.Sprintf("%s/%s/%s", cdc.Name(), kind, prog.name)
				t.Run(name, func(t *testing.T) {
					sched := schedFor(kind, 1)
					rep, err := Run(sweepWorld, sched, watchdog, func(c mpi.Comm) error {
						return prog.run(mpi.WithCodec(c, cdc))
					})
					if err != nil {
						t.Fatal(err)
					}
					if v := checkInvariant(rep, sched.Lossless()); v != "" {
						t.Fatalf("%s\nfault trace (replay with %s):\n%s", v, sched, rep.Trace())
					}
				})
			}
		}
	}
}

// TestTamperDetectedUnderCodec: with compression in the path, every
// tampered payload must surface as a typed corruption error — never as a
// wrong answer passing through to the verifier, and never as a hang. This
// inverts TestTamperProvesHarnessLive's expectation: raw runs NEED the
// verifier to catch tampering; compressed runs detect it in the transport.
func TestTamperDetectedUnderCodec(t *testing.T) {
	progs := sweepPrograms(t)
	for _, cdc := range sweepCodecs(t) {
		detected := 0
		for _, prog := range progs {
			name := fmt.Sprintf("%s/%s", cdc.Name(), prog.name)
			t.Run(name, func(t *testing.T) {
				sched := NewSchedule(1, sweepDeadline)
				sched.Tamper = 1 // corrupt every payload
				rep, err := Run(sweepWorld, sched, watchdog, func(c mpi.Comm) error {
					return prog.run(mpi.WithCodec(c, cdc))
				})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Hang {
					t.Fatalf("tamper run hung:\n%s", rep.Trace())
				}
				for r, e := range rep.Errs {
					if errors.Is(e, errWrong) {
						t.Fatalf("rank %d: tampered compressed payload produced a WRONG ANSWER instead of a typed error\n%s",
							r, rep.Trace())
					}
					if e != nil && !Typed(e) {
						t.Fatalf("rank %d: non-typed error %v\n%s", r, e, rep.Trace())
					}
					if errors.Is(e, codec.ErrCorrupt) {
						detected++
					}
				}
			})
		}
		if detected == 0 {
			t.Fatalf("%s: tampering every payload never surfaced codec.ErrCorrupt — detection is dead", cdc.Name())
		}
	}
}

// TestTruncatedCompressedPayload: a peer that sends a framing word
// promising more encoded bytes than it packed (the transport-level
// truncation shape) draws a typed corruption error on the receiver.
func TestTruncatedCompressedPayload(t *testing.T) {
	cdc := codec.MustFor(codec.DeltaPlane, 0)
	sched := NewSchedule(1, sweepDeadline)
	rep, err := Run(2, sched, watchdog, func(c mpi.Comm) error {
		if c.Rank() == 0 {
			// Hand-build a truncated compressed message under the raw comm:
			// valid framing arithmetic, but the byte stream stops mid-block.
			enc := codec.AppendVector(nil, cdc, tvec(64, 3))
			cut := enc[:len(enc)/2]
			msg := make([]complex128, 1+(len(cut)+15)/16)
			msg[0] = complex(64, float64(len(cut)))
			packWords(msg[1:], cut)
			return c.Send(1, 5, msg)
		}
		_, err := mpi.WithCodec(c, cdc).Recv(0, 5)
		var te *mpi.TransportError
		if !errors.As(err, &te) || !errors.Is(err, codec.ErrCorrupt) {
			return fmt.Errorf("truncated stream: got %v, want *TransportError wrapping codec.ErrCorrupt", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := checkInvariant(rep, true); v != "" {
		t.Fatalf("%s\n%s", v, rep.Trace())
	}
}

// packWords packs b into words 16 bytes at a time, little-endian,
// zero-padded — the same layout mpi's codec middleware uses.
func packWords(words []complex128, b []byte) {
	for i := range words {
		var chunk [16]byte
		copy(chunk[:], b[min(i*16, len(b)):])
		var lo, hi uint64
		for j := 0; j < 8; j++ {
			lo |= uint64(chunk[j]) << (8 * j)
			hi |= uint64(chunk[8+j]) << (8 * j)
		}
		words[i] = complex(math.Float64frombits(lo), math.Float64frombits(hi))
	}
}
