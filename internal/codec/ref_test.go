package codec

import (
	"fmt"
	"math"
)

// The byte-loop deltaplane kernels as they stood before the word-wise
// rewrite, verbatim but for the ref prefix: the differential oracle of
// TestKernelsMatchReference and FuzzKernelsMatchReference. They define the
// format; the production kernels must reproduce their bytes exactly.

// refPlaneScratch holds one block's transposed delta bytes: numPlanes planes
// of BlockElems bytes.
type refPlaneScratch [numPlanes][BlockElems]byte

// refOrderMap converts an IEEE-754 bit pattern into a uint64 whose integer
// ordering matches the float ordering (sign-magnitude made monotone):
// positives gain the top bit, negatives are bit-complemented.
func refOrderMap(bits uint64) uint64 {
	if bits>>63 != 0 {
		return ^bits
	}
	return bits | 1<<63
}

// refOrderUnmap inverts refOrderMap exactly.
func refOrderUnmap(u uint64) uint64 {
	if u>>63 != 0 {
		return u &^ (1 << 63)
	}
	return ^u
}

// refZigzag folds a signed (two's complement) delta into a small magnitude:
// 0,-1,1,-2,2,... -> 0,1,2,3,4,...
func refZigzag(d uint64) uint64 {
	s := int64(d)
	return uint64((s << 1) ^ (s >> 63))
}

// refUnzigzag inverts refZigzag.
func refUnzigzag(z uint64) uint64 {
	return uint64(int64(z>>1) ^ -int64(z&1))
}

// refDeltaStream carries one component stream's second-order-delta state.
// All arithmetic wraps mod 2^64, so every step is exactly invertible for
// arbitrary bit patterns.
type refDeltaStream struct {
	prev  uint64 // last order-mapped value
	slope uint64 // last first difference
}

// fwd maps one order-mapped value to its zigzagged second difference.
func (s *refDeltaStream) fwd(m uint64) uint64 {
	d1 := m - s.prev
	d2 := d1 - s.slope
	s.prev, s.slope = m, d1
	return refZigzag(d2)
}

// inv maps one zigzagged second difference back to its order-mapped value.
func (s *refDeltaStream) inv(z uint64) uint64 {
	d1 := s.slope + refUnzigzag(z)
	m := s.prev + d1
	s.prev, s.slope = m, d1
	return m
}

// refTranspose fills planes[0..15][:k] from src's zigzagged second-order
// deltas (order-mapped bit patterns, state reset per block).
func refTranspose(planes *refPlaneScratch, src []complex128) {
	var sr, si refDeltaStream
	for i, v := range src {
		zre := sr.fwd(refOrderMap(math.Float64bits(real(v))))
		zim := si.fwd(refOrderMap(math.Float64bits(imag(v))))
		for b := 0; b < 8; b++ {
			planes[b][i] = byte(zre >> (8 * b))
			planes[8+b][i] = byte(zim >> (8 * b))
		}
	}
}

// refUntranspose rebuilds dst from the planes' delta bytes.
func refUntranspose(dst []complex128, planes *refPlaneScratch) {
	var sr, si refDeltaStream
	for i := range dst {
		var zre, zim uint64
		for b := 0; b < 8; b++ {
			zre |= uint64(planes[b][i]) << (8 * b)
			zim |= uint64(planes[8+b][i]) << (8 * b)
		}
		re := refOrderUnmap(sr.inv(zre))
		im := refOrderUnmap(si.inv(zim))
		dst[i] = complex(math.Float64frombits(re), math.Float64frombits(im))
	}
}

// refRLEAppend zero-run-encodes plane onto dst.
func refRLEAppend(dst []byte, plane []byte) []byte {
	i := 0
	for i < len(plane) {
		// Count a zero run first: only runs of >= 2 pay for a token.
		if plane[i] == 0 && i+1 < len(plane) && plane[i+1] == 0 {
			run := 2
			for i+run < len(plane) && plane[i+run] == 0 && run < maxZeroRun {
				run++
			}
			dst = append(dst, byte(zeroBase+run))
			i += run
			continue
		}
		// Literal run: up to the next zero pair (or the literal cap).
		start := i
		for i < len(plane) && i-start < maxLiteral {
			if plane[i] == 0 && i+1 < len(plane) && plane[i+1] == 0 {
				break
			}
			i++
		}
		dst = append(dst, byte(i-start-1))
		dst = append(dst, plane[start:i]...)
	}
	return dst
}

// refRLEDecode fills plane (exactly len(plane) bytes) from body, returning
// the number of body bytes consumed. Every length is untrusted: the
// decode never reads past body or writes past plane, and a stream that
// produces the wrong byte count is a typed error.
func refRLEDecode(plane []byte, body []byte) (int, error) {
	out := 0
	read := 0
	for out < len(plane) {
		if read >= len(body) {
			return 0, fmt.Errorf("%w: RLE stream truncated (%d of %d plane bytes)", ErrCorrupt, out, len(plane))
		}
		c := body[read]
		read++
		if c < maxLiteral {
			n := int(c) + 1
			if out+n > len(plane) || read+n > len(body) {
				return 0, fmt.Errorf("%w: RLE literal run of %d overruns plane or body", ErrCorrupt, n)
			}
			copy(plane[out:out+n], body[read:read+n])
			read += n
			out += n
		} else {
			n := int(c) - zeroBase
			if out+n > len(plane) {
				return 0, fmt.Errorf("%w: RLE zero run of %d overruns the plane", ErrCorrupt, n)
			}
			for j := 0; j < n; j++ {
				plane[out+j] = 0
			}
			out += n
		}
	}
	return read, nil
}

// refEncodeDeltaPlanes is the reference encode body.
func refEncodeDeltaPlanes(dst []byte, src []complex128) []byte {
	var planes refPlaneScratch
	refTranspose(&planes, src)
	for p := 0; p < numPlanes; p++ {
		dst = refRLEAppend(dst, planes[p][:len(src)])
	}
	return dst
}

// refDecodeDeltaPlanes is the reference decode body.
func refDecodeDeltaPlanes(dst []complex128, body []byte) error {
	var planes refPlaneScratch
	for p := 0; p < numPlanes; p++ {
		n, err := refRLEDecode(planes[p][:len(dst)], body)
		if err != nil {
			return err
		}
		body = body[n:]
	}
	if len(body) != 0 {
		return fmt.Errorf("%w: %d bytes after the final RLE plane", ErrCorrupt, len(body))
	}
	refUntranspose(dst, &planes)
	return nil
}
