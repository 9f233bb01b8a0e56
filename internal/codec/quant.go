package codec

import (
	"fmt"
	"math"
)

// quantCodec is the tolerance-aware lossy codec: it rounds away the low
// `drop` mantissa bits of every component before running the DeltaPlane
// pipeline, which the zeroed byte planes then compress hard. The rounding
// guarantees a per-element relative error below 2^(drop-53) on normal
// values; non-finite values (NaN, Inf) and denormals pass through
// bit-exactly, so the bound never degenerates (truncating a denormal could
// otherwise zero it — a relative error of 1).
//
// The encoded stream is structurally identical to DeltaPlane's, so decode
// needs no tolerance: a Quant block is self-describing, and a decoder only
// needs the one-byte drop count (Param) to re-encode at the same fidelity.
//
// Budgeting: a per-element relative bound eps adds at most eps to a
// transform's relative aggregate error (||q(x)-x||_2 <= eps*||x||_2), so a
// caller with an accuracy budget B (soifft's Plan.EstimatedError) spends a
// fraction of it on the wire with NewQuant(B/16) and stays within B.
type quantCodec struct {
	drop int    // low mantissa bits rounded away, 1..52
	half uint64 // 1 << (drop-1), the round-to-nearest bias
	mask uint64 // ^0 << drop, the kept bits
}

// MaxDropBits is the largest meaningful mantissa drop (the full IEEE-754
// double mantissa width).
const MaxDropBits = 52

// NewQuant builds the lossy codec for a relative per-element error bound
// tol in [2^-52, 0.5). The drop count is the largest for which the
// rounding error 2^(drop-53) stays at or below tol.
func NewQuant(tol float64) (Codec, error) {
	if !(tol > 0) || tol >= 0.5 || math.IsNaN(tol) {
		return nil, fmt.Errorf("codec: quant tolerance %g outside (0, 0.5)", tol)
	}
	drop := int(math.Floor(math.Log2(tol))) + 53
	if drop < 1 {
		return nil, fmt.Errorf("codec: quant tolerance %g below the representable %g; use deltaplane", tol, math.Exp2(1-53))
	}
	if drop > MaxDropBits {
		drop = MaxDropBits
	}
	return NewQuantBits(drop)
}

// NewQuantBits builds the lossy codec from its wire parameter: the number
// of low mantissa bits rounded away (1..MaxDropBits). Its relative
// per-element error bound is Tolerance.
func NewQuantBits(drop int) (Codec, error) {
	if drop < 1 || drop > MaxDropBits {
		return nil, fmt.Errorf("%w: quant drop bits %d outside [1,%d]", ErrCorrupt, drop, MaxDropBits)
	}
	return quantCodec{
		drop: drop,
		half: 1 << (drop - 1),
		mask: ^uint64(0) << drop,
	}, nil
}

// DropBits returns the mantissa bits a NewQuant(tol) codec rounds away —
// the value that crosses the wire as the codec parameter.
func DropBits(c Codec) int {
	if q, ok := c.(quantCodec); ok {
		return q.drop
	}
	return 0
}

// Tolerance returns c's guaranteed per-element relative error bound: 0 for
// lossless codecs, 2^(drop-53) for Quant.
func Tolerance(c Codec) float64 {
	if q, ok := c.(quantCodec); ok {
		return math.Exp2(float64(q.drop - 53))
	}
	return 0
}

// BudgetShare is the share of a plan's designed error bound a lossy codec
// may spend: Clamp holds a codec's tolerance to EstimatedError/BudgetShare,
// so compression error stays invisible under the designed alias bound.
const BudgetShare = 16

// Clamp bounds c against a plan whose designed error bound is
// estimatedError: a lossy codec whose per-element tolerance exceeds
// estimatedError/BudgetShare is rebuilt at that budget, and a budget too
// small for any quantization falls back to the lossless DeltaPlane codec.
// Lossless codecs (tolerance 0) pass through untouched.
func Clamp(c Codec, estimatedError float64) Codec {
	budget := estimatedError / BudgetShare
	if Tolerance(c) <= budget {
		return c
	}
	clamped, err := NewQuant(budget)
	if err != nil {
		return deltaPlaneCodec{}
	}
	return clamped
}

func (q quantCodec) ID() ID       { return Quant }
func (q quantCodec) Name() string { return "quant" }

// Lossless reports false: Quant rounds mantissas on encode.
func (q quantCodec) Lossless() bool { return false }

func (q quantCodec) MaxBodyLen(elems int) int {
	return deltaPlaneCodec{}.MaxBodyLen(elems)
}

// quantize rounds the low drop bits of one float64 bit pattern to nearest,
// carrying into the exponent when the mantissa overflows (IEEE bit layout
// makes that the correct rounding). Values whose rounding would leave the
// finite range — and NaN/Inf/denormal inputs — pass through unchanged.
func (q quantCodec) quantize(bits uint64) uint64 {
	const expMask = uint64(0x7FF) << 52
	exp := bits & expMask
	if exp == expMask || exp == 0 {
		return bits // NaN, Inf, denormal or zero: keep exact
	}
	rounded := (bits + q.half) & q.mask
	if rounded&expMask == expMask {
		return bits // rounding would carry into Inf: keep exact
	}
	return rounded
}

func (q quantCodec) EncodeBlock(dst []byte, src []complex128) []byte {
	var tmp [BlockElems]complex128
	for i, v := range src {
		re := math.Float64frombits(q.quantize(math.Float64bits(real(v))))
		im := math.Float64frombits(q.quantize(math.Float64bits(imag(v))))
		tmp[i] = complex(re, im)
	}
	return encodeDeltaPlanes(dst, tmp[:len(src)])
}

func (q quantCodec) DecodeBlock(dst []complex128, body []byte) error {
	return decodeDeltaPlanes(dst, body)
}
