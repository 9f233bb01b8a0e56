package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// deltaPlaneCodec is the lossless compressor: it exploits the smoothness
// of FFT traffic (windowed, oversampled segments vary slowly, so adjacent
// samples agree to many significant bits) using only integer arithmetic,
// so every bit pattern — NaN payloads, infinities, denormals, negative
// zero — round-trips exactly.
//
// Pipeline, per block, per component stream (real then imaginary —
// split-complex, so the two smooth streams never interleave):
//
//  1. Total-order map of the IEEE-754 bit pattern: sign-magnitude becomes
//     a monotone uint64 (positives get the top bit, negatives are
//     complemented), so the float ordering equals the integer ordering and
//     smooth data stays smooth across zero crossings.
//  2. Second-order wrapping delta: d2[i] = d1[i] - d1[i-1] with
//     d1[i] = m[i] - m[i-1] (mod 2^64, exactly invertible). The first
//     difference tracks the signal's slope, the second its curvature —
//     for oversampled FFT traffic each order clears another band of high
//     bits.
//  3. Zigzag: small +/- second deltas become small magnitudes, pushing
//     the cleared bits into literal zero high bytes.
//  4. Byte-plane shuffle: the 8 bytes of each zigzagged delta are
//     transposed into 8 planes (all byte-0s, then all byte-1s, ...),
//     concentrating those zeros into long runs.
//  5. Zero-run RLE per plane: control byte c < 0x80 copies c+1 literal
//     bytes; c >= 0x80 emits c-126 zeros (runs of 2..129). A lone zero
//     travels as a literal, so the worst case is bounded: a plane of k
//     bytes encodes to at most k + ceil(k/128) bytes.
//
// The 16 planes (8 real + 8 imaginary) are concatenated; plane boundaries
// are implicit because each plane decodes exactly elems bytes.
type deltaPlaneCodec struct{}

func (deltaPlaneCodec) ID() ID         { return DeltaPlane }
func (deltaPlaneCodec) Name() string   { return "deltaplane" }
func (deltaPlaneCodec) Lossless() bool { return true }

// planes per block: 8 byte positions x {real, imag}.
const numPlanes = 16

func (deltaPlaneCodec) MaxBodyLen(elems int) int {
	return numPlanes * (elems + (elems+127)/128)
}

// planeStride is the row pitch of the plane scratch: BlockElems plus one
// cache line. The transpose stores to all sixteen planes at the same
// offset; at a 4 096-byte pitch those sixteen store streams would share
// one L1 set (64 sets of 64-byte lines) with 8 or 12 ways to hold them,
// so every group would evict the line the previous one was filling. One
// line of padding walks consecutive planes through consecutive sets.
const planeStride = BlockElems + 64

// planeScratch holds one block's transposed delta bytes, indexed
// [component][byte position][element]: the real stream's eight planes,
// then the imaginary stream's — the order they are concatenated in.
type planeScratch [2][8][planeStride]byte

// orderMap converts an IEEE-754 bit pattern into a uint64 whose integer
// ordering matches the float ordering (sign-magnitude made monotone):
// positives gain the top bit, negatives are bit-complemented. Branch-free:
// the sign of noise is not predictable.
func orderMap(bits uint64) uint64 {
	return bits ^ (uint64(int64(bits)>>63) | 1<<63)
}

// orderUnmap inverts orderMap exactly.
func orderUnmap(u uint64) uint64 {
	return u ^ (^uint64(int64(u)>>63) | 1<<63)
}

// zigzag folds a signed (two's complement) delta into a small magnitude:
// 0,-1,1,-2,2,... -> 0,1,2,3,4,...
func zigzag(d uint64) uint64 {
	s := int64(d)
	return uint64((s << 1) ^ (s >> 63))
}

// unzigzag inverts zigzag.
func unzigzag(z uint64) uint64 {
	return uint64(int64(z>>1) ^ -int64(z&1))
}

// deltaStream carries one component stream's second-order-delta state.
// All arithmetic wraps mod 2^64, so every step is exactly invertible for
// arbitrary bit patterns.
type deltaStream struct {
	prev  uint64 // last order-mapped value
	slope uint64 // last first difference
}

// fwd maps one order-mapped value to its zigzagged second difference.
func (s *deltaStream) fwd(m uint64) uint64 {
	d1 := m - s.prev
	d2 := d1 - s.slope
	s.prev, s.slope = m, d1
	return zigzag(d2)
}

// inv maps one zigzagged second difference back to its order-mapped value.
func (s *deltaStream) inv(z uint64) uint64 {
	d1 := s.slope + unzigzag(z)
	m := s.prev + d1
	s.prev, s.slope = m, d1
	return m
}

// exch swaps the mask-selected bit fields of b with the fields shift bits
// higher in a — one step of a recursive block transpose.
func exch(a, b, mask uint64, shift uint) (uint64, uint64) {
	t := (a>>shift ^ b) & mask
	return a ^ t<<shift, b ^ t
}

// transpose8x8 transposes an 8x8 byte matrix held as eight little-endian
// rows: byte j of result b is byte b of argument j. Three rounds swap the
// off-diagonal 4x4, 2x2 and 1x1 blocks. It is its own inverse.
func transpose8x8(w0, w1, w2, w3, w4, w5, w6, w7 uint64) (_, _, _, _, _, _, _, _ uint64) {
	const m32, m16, m8 = 0x00000000FFFFFFFF, 0x0000FFFF0000FFFF, 0x00FF00FF00FF00FF
	w0, w4 = exch(w0, w4, m32, 32)
	w1, w5 = exch(w1, w5, m32, 32)
	w2, w6 = exch(w2, w6, m32, 32)
	w3, w7 = exch(w3, w7, m32, 32)
	w0, w2 = exch(w0, w2, m16, 16)
	w1, w3 = exch(w1, w3, m16, 16)
	w4, w6 = exch(w4, w6, m16, 16)
	w5, w7 = exch(w5, w7, m16, 16)
	w0, w1 = exch(w0, w1, m8, 8)
	w2, w3 = exch(w2, w3, m8, 8)
	w4, w5 = exch(w4, w5, m8, 8)
	w6, w7 = exch(w6, w7, m8, 8)
	return w0, w1, w2, w3, w4, w5, w6, w7
}

// fwd8 advances the stream over eight bit patterns and stores their
// zigzagged deltas as one 8-byte word per plane at elements i..i+7.
func (s *deltaStream) fwd8(rows *[8][planeStride]byte, i int, v *[8]uint64) {
	d := *s
	z0 := d.fwd(orderMap(v[0]))
	z1 := d.fwd(orderMap(v[1]))
	z2 := d.fwd(orderMap(v[2]))
	z3 := d.fwd(orderMap(v[3]))
	z4 := d.fwd(orderMap(v[4]))
	z5 := d.fwd(orderMap(v[5]))
	z6 := d.fwd(orderMap(v[6]))
	z7 := d.fwd(orderMap(v[7]))
	*s = d
	z0, z1, z2, z3, z4, z5, z6, z7 = transpose8x8(z0, z1, z2, z3, z4, z5, z6, z7)
	binary.LittleEndian.PutUint64(rows[0][i:i+8], z0)
	binary.LittleEndian.PutUint64(rows[1][i:i+8], z1)
	binary.LittleEndian.PutUint64(rows[2][i:i+8], z2)
	binary.LittleEndian.PutUint64(rows[3][i:i+8], z3)
	binary.LittleEndian.PutUint64(rows[4][i:i+8], z4)
	binary.LittleEndian.PutUint64(rows[5][i:i+8], z5)
	binary.LittleEndian.PutUint64(rows[6][i:i+8], z6)
	binary.LittleEndian.PutUint64(rows[7][i:i+8], z7)
}

// inv8 is fwd8's inverse: it loads one word per plane at elements i..i+7
// and advances the stream to the eight bit patterns they encode.
func (s *deltaStream) inv8(v *[8]uint64, rows *[8][planeStride]byte, i int) {
	z0, z1, z2, z3, z4, z5, z6, z7 := transpose8x8(
		binary.LittleEndian.Uint64(rows[0][i:i+8]),
		binary.LittleEndian.Uint64(rows[1][i:i+8]),
		binary.LittleEndian.Uint64(rows[2][i:i+8]),
		binary.LittleEndian.Uint64(rows[3][i:i+8]),
		binary.LittleEndian.Uint64(rows[4][i:i+8]),
		binary.LittleEndian.Uint64(rows[5][i:i+8]),
		binary.LittleEndian.Uint64(rows[6][i:i+8]),
		binary.LittleEndian.Uint64(rows[7][i:i+8]))
	d := *s
	v[0] = orderUnmap(d.inv(z0))
	v[1] = orderUnmap(d.inv(z1))
	v[2] = orderUnmap(d.inv(z2))
	v[3] = orderUnmap(d.inv(z3))
	v[4] = orderUnmap(d.inv(z4))
	v[5] = orderUnmap(d.inv(z5))
	v[6] = orderUnmap(d.inv(z6))
	v[7] = orderUnmap(d.inv(z7))
	*s = d
}

// transpose fills planes[c][b][:len(src)] from src's zigzagged
// second-order deltas (order-mapped bit patterns, state reset per block),
// eight elements at a time and the tail one byte at a time.
func transpose(planes *planeScratch, src []complex128) {
	var sr, si deltaStream
	i := 0
	for ; i+8 <= len(src); i += 8 {
		var re, im [8]uint64
		for j, v := range (*[8]complex128)(src[i : i+8]) {
			re[j] = math.Float64bits(real(v))
			im[j] = math.Float64bits(imag(v))
		}
		sr.fwd8(&planes[0], i, &re)
		si.fwd8(&planes[1], i, &im)
	}
	for ; i < len(src); i++ {
		zre := sr.fwd(orderMap(math.Float64bits(real(src[i]))))
		zim := si.fwd(orderMap(math.Float64bits(imag(src[i]))))
		for b := 0; b < 8; b++ {
			planes[0][b][i] = byte(zre >> (8 * b))
			planes[1][b][i] = byte(zim >> (8 * b))
		}
	}
}

// untranspose rebuilds dst from the planes' delta bytes.
func untranspose(dst []complex128, planes *planeScratch) {
	var sr, si deltaStream
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		var re, im [8]uint64
		sr.inv8(&re, &planes[0], i)
		si.inv8(&im, &planes[1], i)
		g := (*[8]complex128)(dst[i : i+8])
		for j := range g {
			g[j] = complex(math.Float64frombits(re[j]), math.Float64frombits(im[j]))
		}
	}
	for ; i < len(dst); i++ {
		var zre, zim uint64
		for b := 0; b < 8; b++ {
			zre |= uint64(planes[0][b][i]) << (8 * b)
			zim |= uint64(planes[1][b][i]) << (8 * b)
		}
		re := orderUnmap(sr.inv(zre))
		im := orderUnmap(si.inv(zim))
		dst[i] = complex(math.Float64frombits(re), math.Float64frombits(im))
	}
}

// RLE token space: literals copy up to maxLiteral bytes, zero-run tokens
// cover runs of 2..maxZeroRun.
const (
	maxLiteral = 128 // control 0x00..0x7F: copy control+1 literals
	zeroBase   = 126 // control 0x80..0xFF: control-zeroBase zeros (2..129)
	maxZeroRun = 255 - zeroBase
)

// zeroBytes returns 0x80 in every byte position where w holds a zero byte
// and 0 elsewhere (exact: no carry crosses a byte).
func zeroBytes(w uint64) uint64 {
	const low7 = 0x7F7F7F7F7F7F7F7F
	return ^((w&low7 + low7) | w | low7)
}

// zeroRun counts the zero bytes p starts with, a word at a time.
func zeroRun(p []byte) int {
	q := p
	for len(q) >= 8 {
		if w := binary.LittleEndian.Uint64(q); w != 0 {
			return len(p) - len(q) + bits.TrailingZeros64(w)>>3
		}
		q = q[8:]
	}
	for len(q) > 0 && q[0] == 0 {
		q = q[1:]
	}
	return len(p) - len(q)
}

// nextZeroPair returns the first index >= i at which p holds two
// consecutive zero bytes, or len(p). Each step tests the seven pairs that
// start inside one word and advances seven bytes, so the pair straddling
// two words is the next word's first.
func nextZeroPair(p []byte, i int) int {
	q := p[i:]
	for len(q) >= 8 {
		z := zeroBytes(binary.LittleEndian.Uint64(q))
		if pair := z & (z >> 8); pair != 0 {
			return len(p) - len(q) + bits.TrailingZeros64(pair)>>3
		}
		q = q[7:]
	}
	for len(q) >= 2 {
		if q[0] == 0 && q[1] == 0 {
			return len(p) - len(q)
		}
		q = q[1:]
	}
	return len(p)
}

// rleAppend zero-run-encodes plane onto dst, which must have room for the
// worst case (len(plane) + ceil(len(plane)/128) bytes): the tokens are
// written by index, not appended. The token choice is greedy — at a zero
// pair, the whole run in tokens of at most maxZeroRun; otherwise literals
// of at most maxLiteral up to the next zero pair — and a single zero left
// over by a run of 129k+1 opens the next literal.
func rleAppend(dst []byte, plane []byte) []byte {
	out := dst[len(dst):cap(dst)]
	o, i := 0, 0
	for i < len(plane) {
		if plane[i] == 0 && i+1 < len(plane) && plane[i+1] == 0 {
			run := zeroRun(plane[i:])
			i += run
			for ; run >= maxZeroRun; run -= maxZeroRun {
				out[o] = zeroBase + maxZeroRun
				o++
			}
			if run >= 2 {
				out[o] = byte(zeroBase + run)
				o++
			} else {
				i -= run
			}
			continue
		}
		for end := nextZeroPair(plane, i); i < end; {
			k := min(end-i, maxLiteral)
			out[o] = byte(k - 1)
			copy(out[o+1:], plane[i:i+k])
			o += 1 + k
			i += k
		}
	}
	return dst[:len(dst)+o]
}

// rleDecode fills plane (exactly len(plane) bytes) from body, returning
// the number of body bytes consumed. Every length is untrusted: the
// decode never reads past body or writes past plane, and a stream that
// produces the wrong byte count is a typed error.
func rleDecode(plane []byte, body []byte) (int, error) {
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
			clear(plane[out : out+n])
			out += n
		}
	}
	return read, nil
}

func (c deltaPlaneCodec) EncodeBlock(dst []byte, src []complex128) []byte {
	return encodeDeltaPlanes(dst, src)
}

// encodeDeltaPlanes is the shared DeltaPlane/Quant encode body.
func encodeDeltaPlanes(dst []byte, src []complex128) []byte {
	if len(src) > BlockElems {
		panic("codec: EncodeBlock called with more than BlockElems elements")
	}
	var planes planeScratch
	transpose(&planes, src)
	dst = slices.Grow(dst, deltaPlaneCodec{}.MaxBodyLen(len(src)))
	for c := range planes {
		for b := range planes[c] {
			dst = rleAppend(dst, planes[c][b][:len(src)])
		}
	}
	return dst
}

func (c deltaPlaneCodec) DecodeBlock(dst []complex128, body []byte) error {
	return decodeDeltaPlanes(dst, body)
}

// decodeDeltaPlanes is the shared DeltaPlane/Quant decode body (Quant's
// stream is structurally identical — quantization happens pre-delta).
func decodeDeltaPlanes(dst []complex128, body []byte) error {
	var planes planeScratch
	for c := range planes {
		for b := range planes[c] {
			n, err := rleDecode(planes[c][b][:len(dst)], body)
			if err != nil {
				return err
			}
			body = body[n:]
		}
	}
	if len(body) != 0 {
		return fmt.Errorf("%w: %d bytes after the final RLE plane", ErrCorrupt, len(body))
	}
	untranspose(dst, &planes)
	return nil
}
