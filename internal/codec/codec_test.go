package codec

import (
	"bytes"
	_ "embed"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// testVectors is the shared round-trip gauntlet: smooth signals (the FFT
// traffic the codecs are built for), uniform noise, special values, and
// awkward lengths (empty, one element, exact block multiples, straddles).
func testVectors() map[string][]complex128 {
	rng := rand.New(rand.NewSource(42))
	smooth := make([]complex128, 3*BlockElems+17)
	for i := range smooth {
		t := float64(i) / float64(len(smooth))
		smooth[i] = complex(math.Sin(2*math.Pi*7*t)+0.25*math.Cos(2*math.Pi*31*t), math.Cos(2*math.Pi*3*t))
	}
	noise := make([]complex128, BlockElems+1)
	for i := range noise {
		noise[i] = complex(rng.NormFloat64()*math.Exp2(float64(rng.Intn(40)-20)), rng.NormFloat64())
	}
	special := []complex128{
		0,
		complex(math.Copysign(0, -1), 0),
		complex(math.NaN(), math.Inf(1)),
		complex(math.Inf(-1), math.NaN()),
		complex(math.Float64frombits(0x7FF8_0000_DEAD_BEEF), 1),                       // NaN payload
		complex(math.Float64frombits(1), math.Float64frombits(0x000F_FFFF_FFFF_FFFF)), // denormals
		complex(math.MaxFloat64, -math.MaxFloat64),
		complex(math.SmallestNonzeroFloat64, 4.9406564584124654e-324),
		complex(1.0000000000000002, -1.0000000000000002),
	}
	return map[string][]complex128{
		"smooth":  smooth,
		"noise":   noise,
		"special": special,
		"empty":   nil,
		"one":     {complex(3.25, -7.5)},
		"block":   smooth[:BlockElems],
		"2block":  smooth[:2*BlockElems],
	}
}

func allCodecs(t *testing.T) []Codec {
	t.Helper()
	q, err := NewQuant(1e-9)
	if err != nil {
		t.Fatal(err)
	}
	return []Codec{identityCodec{}, deltaPlaneCodec{}, q}
}

func TestRoundTrip(t *testing.T) {
	for _, c := range allCodecs(t) {
		for name, x := range testVectors() {
			enc := AppendVector(nil, c, x)
			if len(x) > 0 && uint64(len(enc)) > MaxEncodedLen(len(x)) {
				t.Errorf("%s/%s: encoded %d bytes exceeds MaxEncodedLen %d", c.Name(), name, len(enc), MaxEncodedLen(len(x)))
			}
			dst := make([]complex128, len(x))
			if err := DecodeVector(dst, c, enc); err != nil {
				t.Errorf("%s/%s: decode: %v", c.Name(), name, err)
				continue
			}
			checkFidelity(t, c, name, x, dst)

			// Streaming reader must agree with the in-memory decoder.
			dst2 := make([]complex128, len(x))
			if err := ReadVector(bytes.NewReader(enc), c, dst2, uint64(len(enc))); err != nil {
				t.Errorf("%s/%s: ReadVector: %v", c.Name(), name, err)
				continue
			}
			for i := range dst {
				if !sameBits(dst[i], dst2[i]) {
					t.Errorf("%s/%s: ReadVector[%d] = %v, DecodeVector = %v", c.Name(), name, i, dst2[i], dst[i])
					break
				}
			}
		}
	}
}

// sameBits compares complex128s bit-exactly (NaN-safe).
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// checkFidelity asserts the codec's contract on one round-tripped vector:
// bit-exact for lossless, within Tolerance per element for Quant.
func checkFidelity(t *testing.T, c Codec, name string, want, got []complex128) {
	t.Helper()
	tol := Tolerance(c)
	for i := range want {
		if c.Lossless() || !isFiniteNormal(real(want[i])) || !isFiniteNormal(imag(want[i])) {
			if !sameBits(want[i], got[i]) {
				t.Errorf("%s/%s: [%d] = %v, want bit-exact %v", c.Name(), name, i, got[i], want[i])
				return
			}
			continue
		}
		if relErr(real(want[i]), real(got[i])) > tol || relErr(imag(want[i]), imag(got[i])) > tol {
			t.Errorf("%s/%s: [%d] = %v, want %v within rel %g", c.Name(), name, i, got[i], want[i], tol)
			return
		}
	}
}

// isFiniteNormal reports whether v is quantizable (finite and not denormal).
func isFiniteNormal(v float64) bool {
	exp := math.Float64bits(v) & (0x7FF << 52)
	return exp != 0x7FF<<52 && exp != 0
}

func relErr(want, got float64) float64 {
	if want == got {
		return 0
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestQuantToleranceLadder pins the tol -> drop-bits mapping and the
// per-element bound across the parameter range.
func TestQuantToleranceLadder(t *testing.T) {
	for _, tc := range []struct {
		tol  float64
		drop int
	}{
		{math.Exp2(-52), 1},
		{1e-12, 13},
		{1e-9, 23},
		{1e-6, 33},
		{1e-3, 43},
		{0.25, 51},
	} {
		c, err := NewQuant(tc.tol)
		if err != nil {
			t.Fatalf("NewQuant(%g): %v", tc.tol, err)
		}
		if got := DropBits(c); got != tc.drop {
			t.Errorf("NewQuant(%g) drop = %d, want %d", tc.tol, got, tc.drop)
		}
		if got := Tolerance(c); got > tc.tol {
			t.Errorf("NewQuant(%g).Tolerance() = %g exceeds the requested bound", tc.tol, got)
		}
		if b := Param(c); int(b) != tc.drop {
			t.Errorf("Param = %d, want drop %d", b, tc.drop)
		}
		rt, err := For(Quant, Param(c))
		if err != nil || DropBits(rt) != tc.drop {
			t.Errorf("For(Quant, %d) = %v drop %d, err %v", Param(c), rt, DropBits(rt), err)
		}
	}
	for _, bad := range []float64{0, -1, 0.5, 1, math.NaN(), math.Inf(1), math.Exp2(-53)} {
		if _, err := NewQuant(bad); err == nil {
			t.Errorf("NewQuant(%g) accepted", bad)
		}
	}
	for _, bad := range []int{0, -1, 53, 255} {
		if _, err := NewQuantBits(bad); err == nil {
			t.Errorf("NewQuantBits(%d) accepted", bad)
		}
	}
}

// TestCompressionRatioSmooth: the acceptance bar — better than 1.5x on a
// smooth signal for both compressing codecs.
func TestCompressionRatioSmooth(t *testing.T) {
	x := make([]complex128, 1<<14)
	for i := range x {
		ti := float64(i) / float64(len(x))
		x[i] = complex(math.Sin(2*math.Pi*5*ti), 0.5*math.Cos(2*math.Pi*2*ti))
	}
	raw := float64(len(x) * bytesPerElem)
	q, _ := NewQuant(1e-9)
	for _, c := range []Codec{deltaPlaneCodec{}, q} {
		enc := AppendVector(nil, c, x)
		ratio := raw / float64(len(enc))
		t.Logf("%s: %d -> %d bytes (%.2fx)", c.Name(), int(raw), len(enc), ratio)
		if ratio < 1.5 {
			t.Errorf("%s: compression ratio %.2f below 1.5 on a smooth signal", c.Name(), ratio)
		}
	}
}

// TestTamperDetected: every single-bit flip anywhere in an encoded stream
// must surface as a typed error or (for flips that survive the checksum
// with probability 2^-32 — none in this deterministic sweep) decode to the
// identical length. Silent wrong answers are the one forbidden outcome we
// can cheaply detect: a flip in a body must trip the CRC.
func TestTamperDetected(t *testing.T) {
	x := testVectors()["smooth"][:300]
	for _, c := range allCodecs(t) {
		enc := AppendVector(nil, c, x)
		step := len(enc)/997 + 1
		for pos := 0; pos < len(enc); pos += step {
			mut := append([]byte(nil), enc...)
			mut[pos] ^= 0x10
			dst := make([]complex128, len(x))
			err := DecodeVector(dst, c, mut)
			if err == nil {
				t.Fatalf("%s: flip at %d/%d decoded silently", c.Name(), pos, len(enc))
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: flip at %d: untyped error %v", c.Name(), pos, err)
			}
		}
		// Truncations at every boundary class.
		for _, cut := range []int{0, 1, blockHeaderLen - 1, blockHeaderLen, len(enc) / 2, len(enc) - 1} {
			dst := make([]complex128, len(x))
			if err := DecodeVector(dst, c, enc[:cut]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: truncation to %d bytes: %v", c.Name(), cut, err)
			}
		}
		// Trailing garbage.
		dst := make([]complex128, len(x))
		if err := DecodeVector(dst, c, append(append([]byte(nil), enc...), 0xAB)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: trailing byte accepted: %v", c.Name(), err)
		}
	}
}

// TestDecodeHostileHeaders: adversarial block headers must draw typed
// errors under the allocation caps, whatever their declared sizes.
func TestDecodeHostileHeaders(t *testing.T) {
	c := deltaPlaneCodec{}
	mk := func(id byte, reserved byte, elems uint16, body uint32, crc uint32, tail int) []byte {
		b := make([]byte, blockHeaderLen+tail)
		b[0] = id
		b[1] = reserved
		b[2], b[3] = byte(elems), byte(elems>>8)
		b[4], b[5], b[6], b[7] = byte(body), byte(body>>8), byte(body>>16), byte(body>>24)
		b[8], b[9], b[10], b[11] = byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24)
		return b
	}
	cases := map[string][]byte{
		"wrong codec id":   mk(byte(Quant), 0, 4, 8, 0, 8),
		"unknown codec id": mk(200, 0, 4, 8, 0, 8),
		"reserved set":     mk(byte(DeltaPlane), 7, 4, 8, 0, 8),
		"zero elems":       mk(byte(DeltaPlane), 0, 0, 8, 0, 8),
		"elems over block": mk(byte(DeltaPlane), 0, BlockElems+1, 8, 0, 8),
		"zero body":        mk(byte(DeltaPlane), 0, 4, 0, 0, 0),
		"body over bound":  mk(byte(DeltaPlane), 0, 4, 1<<30, 0, 0),
		"body truncated":   mk(byte(DeltaPlane), 0, 4, 64, 0, 8),
	}
	for name, stream := range cases {
		dst := make([]complex128, 8)
		if err := DecodeVector(dst, c, stream); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecodeVector = %v, want ErrCorrupt", name, err)
		}
		if err := ReadVector(bytes.NewReader(stream), c, dst, uint64(len(stream))); err == nil {
			t.Errorf("%s: ReadVector accepted", name)
		}
	}
	// A block declaring more elements than the caller expects.
	enc := AppendVector(nil, c, make([]complex128, 64))
	short := make([]complex128, 3)
	if err := DecodeVector(short, c, enc); !errors.Is(err, ErrCorrupt) {
		t.Errorf("oversized block: %v, want ErrCorrupt", err)
	}
	// Declared payload length beyond the bound for the element count.
	if err := ReadVector(bytes.NewReader(enc), c, make([]complex128, 64), MaxEncodedLen(64)+1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("over-bound declared length: %v, want ErrCorrupt", err)
	}
	// Declared length larger than the stream: must fail on the short read,
	// not hang or succeed.
	if err := ReadVector(bytes.NewReader(enc), c, make([]complex128, 64), uint64(len(enc))+4); err == nil {
		t.Error("ReadVector accepted a declared length beyond the stream")
	}
}

// TestSizeAlgebra pins the overflow-safe bounds.
func TestSizeAlgebra(t *testing.T) {
	if MaxEncodedLen(0) != 0 {
		t.Error("MaxEncodedLen(0) != 0")
	}
	if MaxEncodedLen(math.MaxInt64) != math.MaxUint64 {
		t.Error("MaxEncodedLen must saturate, not wrap")
	}
	if MaxElemsForEncoded(math.MaxUint64) != math.MaxUint64 {
		t.Error("MaxElemsForEncoded must saturate, not wrap")
	}
	// The bound must cover the worst real encoding (incompressible noise).
	rng := rand.New(rand.NewSource(7))
	x := make([]complex128, BlockElems+321)
	for i := range x {
		x[i] = complex(math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64()))
	}
	for _, c := range allCodecs(t) {
		if got := uint64(len(AppendVector(nil, c, x))); got > MaxEncodedLen(len(x)) {
			t.Errorf("%s encodes %d elems to %d bytes, over MaxEncodedLen %d", c.Name(), len(x), got, MaxEncodedLen(len(x)))
		}
	}
	// And the dual: no codec can legally declare more elements than
	// MaxElemsForEncoded admits for its stream size.
	for _, c := range allCodecs(t) {
		enc := AppendVector(nil, c, x)
		if uint64(len(x)) > MaxElemsForEncoded(uint64(len(enc))) {
			t.Errorf("%s: %d elems in %d bytes violates MaxElemsForEncoded", c.Name(), len(x), len(enc))
		}
	}
}

// codecSrc is embedded, not read, so a build overlay of codec.go reaches
// TestIDsMatchDeclarations.
//
//go:embed codec.go
var codecSrc string

// TestIDsMatchDeclarations: IDs() lists exactly the ID constants codec.go
// declares, each with a String case, so the conformance tests that range
// over IDs() cover a codec once it is declared.
func TestIDsMatchDeclarations(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "codec.go", codecSrc, 0)
	if err != nil {
		t.Fatal(err)
	}
	var declared []ID
	ast.Inspect(f, func(n ast.Node) bool {
		if vs, ok := n.(*ast.ValueSpec); ok && fmt.Sprint(vs.Type) == "ID" {
			for i, v := range vs.Values {
				lit, _ := v.(*ast.BasicLit)
				if lit == nil {
					t.Fatalf("ID constant %s is not an integer literal", vs.Names[i])
				}
				id, err := strconv.Atoi(lit.Value)
				if err != nil {
					t.Fatalf("ID constant %s: %v", vs.Names[i], err)
				}
				declared = append(declared, ID(id))
			}
		}
		return true
	})
	slices.Sort(declared)
	if !slices.Equal(IDs(), declared) {
		t.Errorf("IDs() = %v, codec.go declares %v", IDs(), declared)
	}
	for _, id := range declared {
		if id.String() == fmt.Sprintf("codec(%d)", byte(id)) {
			t.Errorf("ID %d has no String case", byte(id))
		}
	}
}

// TestClamp pins the budget clamp: lossless and within-budget codecs pass
// through, an over-budget Quant is rebuilt at EstimatedError/BudgetShare,
// and a budget below the representable quantization step falls back to
// lossless.
func TestClamp(t *testing.T) {
	lossless := MustFor(DeltaPlane, 0)
	if got := Clamp(lossless, BudgetShare*1e-12); got != lossless {
		t.Errorf("lossless clamped to %v", got)
	}
	fine, _ := NewQuant(1e-12)
	if got := Clamp(fine, BudgetShare*1e-6); got != fine {
		t.Errorf("within-budget quant clamped to %v", got)
	}
	coarse, _ := NewQuant(1e-3)
	got := Clamp(coarse, BudgetShare*1e-9)
	if got.ID() != Quant || Tolerance(got) > 1e-9 {
		t.Errorf("over-budget quant clamped to %v (tol %g), want quant at <= 1e-9", got, Tolerance(got))
	}
	if got := Clamp(coarse, BudgetShare*1e-18); !got.Lossless() {
		t.Errorf("sub-representable budget gave %v, want lossless fallback", got)
	}
}

func TestByNameAndIDs(t *testing.T) {
	for _, tc := range []struct {
		name string
		id   ID
	}{{"identity", Identity}, {"", Identity}, {"deltaplane", DeltaPlane}, {"delta", DeltaPlane}, {"quant", Quant}, {"lossy", Quant}} {
		c, err := ByName(tc.name, 1e-9)
		if err != nil {
			t.Fatalf("ByName(%q): %v", tc.name, err)
		}
		if c.ID() != tc.id {
			t.Errorf("ByName(%q).ID() = %v, want %v", tc.name, c.ID(), tc.id)
		}
	}
	if _, err := ByName("gzip", 0); err == nil {
		t.Error("ByName accepted an unknown codec")
	}
	if _, err := ByName("quant", 0); err == nil {
		t.Error("ByName(quant) accepted a zero tolerance")
	}
	for _, id := range IDs() {
		c, err := For(id, 20)
		if err != nil {
			t.Fatalf("For(%v): %v", id, err)
		}
		if c.ID() != id {
			t.Errorf("For(%v).ID() = %v", id, c.ID())
		}
	}
	if _, err := For(ID(99), 0); !errors.Is(err, ErrCorrupt) {
		t.Error("For(99) must be a typed corrupt error")
	}
	if _, err := For(Quant, 0); !errors.Is(err, ErrCorrupt) {
		t.Error("For(Quant, 0): zero drop bits must be rejected")
	}
}
