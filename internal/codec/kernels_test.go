package codec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"soifft/internal/cvec"
	"soifft/internal/fft"
	"soifft/internal/ref"
)

// Wire compatibility of the word-wise deltaplane kernels. Two independent
// nets: a differential one (every block must encode to the bytes the
// byte-loop reference in ref_test.go produces, and decode to the bits it
// decodes) and a golden one (SHA-256 digests of the parent commit's encoded
// streams, so the format is pinned even if the oracle and the kernels
// drift together).

// blockFromPlanes returns the block whose transposed delta bytes are
// exactly planes[p][:k] — the inverse pipeline run by the reference — so a
// test can dictate the byte pattern the RLE stage sees.
func blockFromPlanes(planes *refPlaneScratch, k int) []complex128 {
	src := make([]complex128, k)
	refUntranspose(src, planes)
	return src
}

// zeroRunBlocks builds seeded blocks whose planes hold zero runs at every
// length where the token choice changes (a lone zero is a literal, 2 is the
// shortest token, 129 the longest, 130 leaves a lone zero, 258 is two full
// tokens, 259 leaves one again), at the plane's start, interior and edge,
// and crossing the 8-byte words the kernels scan by.
func zeroRunBlocks() [][]complex128 {
	rng := rand.New(rand.NewSource(17))
	runs := []int{1, 2, 3, 7, 8, 9, 15, 16, 17, 127, 128, 129, 130, 131, 257, 258, 259, 260, 387, 388}
	var blocks [][]complex128
	for _, k := range []int{BlockElems, BlockElems - 3, 1031, 300} {
		var planes refPlaneScratch
		for p := range planes {
			row := planes[p][:k]
			for i := range row {
				row[i] = byte(1 + rng.Intn(255))
			}
			// Runs separated by 1..9 literal bytes, so they start at every
			// offset within a word; the last run is cut off by the edge.
			for at := rng.Intn(12); at < k; {
				run := runs[rng.Intn(len(runs))]
				end := min(at+run, k)
				clear(row[at:end])
				at = end + 1 + rng.Intn(9)
			}
		}
		// One plane of nothing but zeros, one ending in a lone zero, one
		// starting with one, one whose literal runs exceed 128 bytes.
		clear(planes[3][:k])
		planes[4][k-1], planes[4][k-2] = 0, 7
		planes[5][0], planes[5][1] = 0, 7
		for i := range planes[6][:k] {
			planes[6][i] = byte(1 + i%255)
		}
		blocks = append(blocks, blockFromPlanes(&planes, k))
	}
	return blocks
}

// soiperfN is the length of the serve_28k_codec_open payloads.
const soiperfN = 28672

// tone is one mode of the benchmark's smooth input: amp*exp(i*(w*j + phase))
// with w = 2*pi*bin/soiperfN.
type tone struct {
	bin        int
	amp, phase float64
}

// soiperfTones draws the eight modes of bench/soiperf's smoothInputs, seed 1.
func soiperfTones() []tone {
	rng := rand.New(rand.NewSource(1))
	tones := make([]tone, 8)
	for m := range tones {
		tones[m].bin = 1 + rng.Intn(32)
		tones[m].amp = 0.5 + rng.Float64()
		tones[m].phase = 2 * math.Pi * rng.Float64()
	}
	return tones
}

// synthesize sums the tones into a soiperfN-point signal.
func synthesize(tones []tone) []complex128 {
	x := make([]complex128, soiperfN)
	for _, tn := range tones {
		w := 2 * math.Pi * float64(tn.bin) / soiperfN
		for i := range x {
			s, c := math.Sincos(w*float64(i) + tn.phase)
			x[i] += complex(tn.amp*c, tn.amp*s)
		}
	}
	return x
}

// soiperfPayloads is the serve_28k_codec_open request/response pair: the
// benchmark's smooth 8-mode input at n = 28 672 (bench/soiperf smoothInputs,
// seed 1) and its spectrum, computed by fft.Plan.
func soiperfPayloads(t testing.TB) (request, response []complex128) {
	x := synthesize(soiperfTones())
	plan, err := fft.NewPlan(soiperfN)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]complex128, soiperfN)
	plan.Forward(y, x)
	return x, y
}

// namedVectors is the set the differential and the golden tests share.
func namedVectors(t testing.TB) map[string][]complex128 {
	v := testVectors()
	v["soiperf-request"], v["soiperf-response"] = soiperfPayloads(t)
	v["zero-runs"] = slices.Concat(zeroRunBlocks()...)
	return v
}

// checkBlockMatchesReference is the property: same bytes out, same bits back.
func checkBlockMatchesReference(t testing.TB, name string, src []complex128) {
	t.Helper()
	want := refEncodeDeltaPlanes(nil, src)
	// A dirty prefix and exact-fit capacity: the index-written output must
	// neither disturb what precedes it nor need more room than MaxBodyLen.
	prefix := []byte{0xA5, 0x5A, 0xC3}
	got := deltaPlaneCodec{}.EncodeBlock(slices.Clone(prefix), src)
	if !bytes.Equal(got[:len(prefix)], prefix) {
		t.Fatalf("%s: EncodeBlock overwrote dst's existing bytes", name)
	}
	if got = got[len(prefix):]; !bytes.Equal(got, want) {
		t.Fatalf("%s: %d elements encode to %d bytes, reference %d; first difference at byte %d",
			name, len(src), len(got), len(want), firstDiff(got, want))
	}
	back, refBack := make([]complex128, len(src)), make([]complex128, len(src))
	if err := (deltaPlaneCodec{}).DecodeBlock(back, want); err != nil {
		t.Fatalf("%s: DecodeBlock: %v", name, err)
	}
	if err := refDecodeDeltaPlanes(refBack, want); err != nil {
		t.Fatalf("%s: reference decode: %v", name, err)
	}
	for i := range src {
		if !sameBits(back[i], refBack[i]) || !sameBits(back[i], src[i]) {
			t.Fatalf("%s: [%d] decodes to %v, reference %v, source %v", name, i, back[i], refBack[i], src[i])
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func TestKernelsMatchReference(t *testing.T) {
	for name, x := range namedVectors(t) {
		for off := 0; off < len(x); off += BlockElems {
			checkBlockMatchesReference(t, name, x[off:min(off+BlockElems, len(x))])
		}
	}
	// Every short length and the lengths around the last full group of
	// eight: the word-wise body and the byte-wise tail split every way.
	noise := testVectors()["noise"]
	smooth := testVectors()["smooth"]
	for _, span := range [][2]int{{1, 17}, {BlockElems - 7, BlockElems}} {
		for k := span[0]; k <= span[1]; k++ {
			checkBlockMatchesReference(t, "noise-len", noise[:k])
			checkBlockMatchesReference(t, "smooth-len", smooth[5:5+k])
		}
	}
}

// goldenDigests are SHA-256 of AppendVector's stream for each named vector
// under deltaplane and quant(1e-9), generated once by the byte-loop encoder
// at commit c895229 (the parent of the word-wise rewrite). "zero-runs" is
// built from integers alone; the others pass through math.Sin/Sincos and the
// FFT, whose last bits differ where the compiler fuses multiply-adds, so
// they are pinned on amd64 only, beside each input's own digest
// (goldenInputs): a stream digest is only checked against the input it was
// recorded for. The two soiperf-response digests were recorded again, under
// the same encoder, when fft's radix-7 pass became the symmetric-pair
// butterfly (relative L2 change of the spectrum 1.7e-16), and the deltaplane
// one again when factorize dropped its aliasing rule (the 28 672-point
// schedule went from 8,8,8,4,2,7 to 8,8,8,8,7; TestSoiperfResponseModes; the
// quant stream did not move).
var goldenDigests = map[string]string{
	"deltaplane/2block":           "cacd0b9d2f0f78044d7a271ef2accea0ea3d54a0653d7dc0ec28463da05b2c13",
	"deltaplane/block":            "9c131d4dd752adb70e93c7ba064203394678507eea44fa1f27771d6da52c6425",
	"deltaplane/empty":            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"deltaplane/noise":            "60cb657655d45c1002531021c183d44e1b52e1fe7ad386f565effa4f10912fdb",
	"deltaplane/one":              "a65a1aa4ed35ceccbc66d4bdb24acce220374e99db3d942061ee7dc6ee6aa9c0",
	"deltaplane/smooth":           "0b9356f611f22988613f0aa6c24d99c189e85a8b5a13edd1128ca3856059346c",
	"deltaplane/soiperf-request":  "3d9f6228ceffdf488f474af69bc11170f8b11412eb484579aef64f7bb3636a6f",
	"deltaplane/soiperf-response": "9931b203ef1e51119440d968b253b2b009855200d41e9c5f125e315830f37299",
	"deltaplane/special":          "98dc1f8c99daa6d3122d57f476f96ee742725ab6cb17317b1c3b09d8b8a2ece3",
	"deltaplane/zero-runs":        "2d11374924dc10d4db85d6313b9d75f992dcbfc6d69c2a51d0279afd5cbec4ff",
	"quant/2block":                "1f2bdcb0329c50fd943ba48865fbdb918eedac630cd357792133c3bd77079579",
	"quant/block":                 "6d067bb7fa96b32c4613bc58048957db93208155062e2498fd5b2ee2029eb5b7",
	"quant/empty":                 "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"quant/noise":                 "7d24aa7d69b82e38cb03bf1802feea8153f64d6b821b15f13098c4c2ab3a4dd4",
	"quant/one":                   "72ddf56b4fbf07bbce3f0934b6ab89b8638adbc6c355de74867aafbc6dee9532",
	"quant/smooth":                "c3d982c529919fb8036660ca810deeda9e0cfab6072849adff5154d5f709a4a2",
	"quant/soiperf-request":       "09cbb76bb8f050e0a9db5a52b11ab9794ac2ff33969f04964cd0c3255d19a34f",
	"quant/soiperf-response":      "9b75f43ac6bbfa180f7e9869abc3427efdc4dcb20c7dc5a61a490817fbef3f3f",
	"quant/special":               "bfe0f647d0fa9407033fac39b798923fa4704c665af95eedfc0030423a2015a0",
	"quant/zero-runs":             "4514b28b39078be32947969d0ab972f7beda184cbbc6fd7a517285b8c8672079",
}

// goldenInputs are SHA-256 of each named vector's bit pattern (the
// little-endian image of its float64 parts), recorded from the inputs the
// stream digests above were checked against; soiperf-response's again with
// its deltaplane stream. An input that moves is a change upstream of the
// codec — math.Sincos, or the FFT that computes soiperf-response, whose
// tolerance mode is TestSoiperfResponseModes — not a codec change.
var goldenInputs = map[string]string{
	"2block":           "1dc3599529fb63179338cc402fa0755196412752407b10af12169d5163cf0093",
	"block":            "7f612d1b3b2e9c495d6787c59c2fba60cf335b0b2acbe1a4cfd05eb0a78914ef",
	"empty":            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"noise":            "84a2ebf70c45e0ee8a780cfd27f58180160aae4fbfb5c378dff69eab1fa08474",
	"one":              "b40c667a24831cf34dd0d22e4a794854700d256cfd666158fe211e238208b62a",
	"smooth":           "8051c3ebc3757dc954e0059ed30f764116bafe93efa464569d167722286891e7",
	"soiperf-request":  "2ec88580eeaa22d8bf402025b75ed3597eab583ef13a8b37b1ab856445f93d91",
	"soiperf-response": "299d6cc5c3b6a6ef1051277742ff675ec6b3517d9a5537029668b953659ac657",
	"special":          "42f6e7e36636fbd5602696fe3a2c1f1491cbcc66b30ecb8670d647529b93539c",
	"zero-runs":        "266a2afe80e993fa7c269ac1ef48f5ad8d0316a915a04ba833e36249a7c5dc76",
}

func TestEncodedStreamDigests(t *testing.T) {
	q, err := NewQuant(1e-9)
	if err != nil {
		t.Fatal(err)
	}
	vectors := namedVectors(t)
	names := make([]string, 0, len(vectors))
	for name := range vectors {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if name != "zero-runs" && runtime.GOARCH != "amd64" {
			continue
		}
		if got := inputDigest(vectors[name]); got != goldenInputs[name] {
			t.Errorf("input %q moved: %q, // recorded %q; its stream digests were recorded for the old input and are not checked", name, got, goldenInputs[name])
			continue
		}
		for _, c := range []Codec{deltaPlaneCodec{}, q} {
			key := c.Name() + "/" + name
			sum := sha256.Sum256(AppendVector(nil, c, vectors[name]))
			if got := hex.EncodeToString(sum[:]); got != goldenDigests[key] {
				t.Errorf("%q: %q, // recorded %q", key, got, goldenDigests[key])
			}
		}
	}
}

// inputDigest is SHA-256 of x's little-endian image.
func inputDigest(x []complex128) string {
	b := make([]byte, 16*len(x))
	cvec.Encode(b, x)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestSoiperfResponseModes is the tolerance mode of the soiperf-response
// input, the one named vector an FFT computes. Its bit mode is its digest in
// goldenInputs. The tolerance mode holds it within the rounding model of the
// exact spectrum of the ideal signal (n*amp*exp(i*phase) at each tone's bin,
// zero elsewhere): ref.FFTBound(n) for the transform plus the synthesis of
// the request, whose per-sample error is at most sum(amp)*Roundoff*(4*maxArg
// + 10) (the argument w*j + phase rounded three times, Sincos, eight sums),
// n times that over the spectrum's L2 norm. The six-step, a reordered
// summation of the same DFT, passes the tolerance mode and fails the bit
// mode; a request with one tone's amplitude coefficient off by 1e-9 fails
// both.
func TestSoiperfResponseModes(t *testing.T) {
	tones := soiperfTones()
	exact := make([]complex128, soiperfN)
	sumAmp, maxArg := 0.0, 0.0
	for _, tn := range tones {
		s, c := math.Sincos(tn.phase)
		exact[tn.bin] += complex(soiperfN*tn.amp*c, soiperfN*tn.amp*s)
		sumAmp += tn.amp
		maxArg = max(maxArg, 2*math.Pi*float64(tn.bin)*(soiperfN-1)/soiperfN+tn.phase)
	}
	synth := soiperfN * sumAmp * ref.Roundoff * (4*maxArg + 10) / cvec.L2Norm(exact)
	model := ref.FFTBound(soiperfN) + synth
	modes := func(y []complex128) (bit, tol bool, d float64) {
		d = cvec.RelErrL2(y, exact)
		return inputDigest(y) == goldenInputs["soiperf-response"], d <= model, d
	}

	_, y := soiperfPayloads(t)
	six, err := fft.NewSixStep(soiperfN, fft.SixStepOpt, 1)
	if err != nil {
		t.Fatal(err)
	}
	twin := make([]complex128, soiperfN)
	six.Forward(twin, synthesize(tones))
	seededTones := slices.Clone(tones)
	seededTones[0].amp *= 1 + 1e-9
	seeded := make([]complex128, soiperfN)
	fft.MustPlan(soiperfN).Forward(seeded, synthesize(seededTones))

	pinned := runtime.GOARCH == "amd64"
	for _, tc := range []struct {
		name     string
		y        []complex128
		bit, tol bool
	}{
		{"fft.Plan", y, pinned, true},
		{"six-step twin", twin, false, true},
		{"one-coefficient error", seeded, false, false},
	} {
		bit, tol, d := modes(tc.y)
		t.Logf("%s: %.3g from the exact spectrum (model %.3g: transform %.3g, synthesis %.3g)",
			tc.name, d, model, ref.FFTBound(soiperfN), synth)
		if pinned && bit != tc.bit {
			t.Errorf("%s: bit mode passes %v, want %v", tc.name, bit, tc.bit)
		}
		if tol != tc.tol {
			t.Errorf("%s: tolerance mode passes %v, want %v", tc.name, tol, tc.tol)
		}
	}
}

// fuzzBlock expands fuzz bytes into a block with dictated plane bytes: the
// first two bytes pick the length, the rest is a script — an odd byte d
// emits d/2+1 zeros (runs of 1..128, adjacent ones merging into longer
// runs), an even one emits itself (0 being one more zero) — repeated to
// fill the planes.
func fuzzBlock(data []byte) []complex128 {
	if len(data) < 3 {
		return nil
	}
	k := 1 + (int(data[0])|int(data[1])<<8)%BlockElems
	script := data[2:]
	var planes refPlaneScratch
	s, zeros := 0, 0
	for p := range planes {
		for i := range planes[p][:k] {
			if zeros > 0 {
				zeros--
				continue
			}
			d := script[s%len(script)]
			s++
			if d&1 != 0 {
				zeros = int(d / 2)
			} else {
				planes[p][i] = d
			}
		}
	}
	return blockFromPlanes(&planes, k)
}

// FuzzKernelsMatchReference holds the differential property on fuzz-built
// blocks, and holds the two RLE decoders to the same verdict, byte count
// and output on arbitrary (mostly malformed) bodies.
func FuzzKernelsMatchReference(f *testing.F) {
	f.Add([]byte{0xFF, 0x0F, 0x02, 0x01, 0xFF, 0xFF, 0x04, 0x03})
	f.Add([]byte{0x10, 0x00, 0xFF, 0xFF, 0xFF, 0x01, 0x06})
	f.Add([]byte{0x00, 0x00, 0x00})
	f.Add([]byte{0x81, 0x00, 0x7F, 0x00, 0x01, 0x02, 0xFF, 0x80, 0x05, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if src := fuzzBlock(data); src != nil {
			checkBlockMatchesReference(t, "fuzz", src)
		}
		for _, k := range []int{1, 9, 130, 517} {
			got, want := make([]byte, k), make([]byte, k)
			n, err := rleDecode(got, data)
			refN, refErr := refRLEDecode(want, data)
			if (err == nil) != (refErr == nil) || n != refN {
				t.Fatalf("plane of %d: rleDecode = (%d, %v), reference (%d, %v)", k, n, err, refN, refErr)
			}
			if err == nil && !bytes.Equal(got, want) {
				t.Fatalf("plane of %d: decoders disagree at byte %d", k, firstDiff(got, want))
			}
		}
	})
}

// TestEncodeDecodeStackOnly: the block kernels work out of their stack
// frames — the plane scratch must not move to the heap — so encoding into a
// pre-sized dst and decoding allocate nothing.
func TestEncodeDecodeStackOnly(t *testing.T) {
	src := testVectors()["block"]
	c := deltaPlaneCodec{}
	enc := make([]byte, 0, c.MaxBodyLen(len(src)))
	dst := make([]complex128, len(src))
	if n := testing.AllocsPerRun(20, func() { enc = c.EncodeBlock(enc[:0], src) }); n != 0 {
		t.Errorf("EncodeBlock into a pre-sized dst: %v allocations per call, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := c.DecodeBlock(dst, enc); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeBlock: %v allocations per call, want 0", n)
	}
}

// TestEncodeBlockRejectsOversizedBlock: the plane scratch is padded past
// BlockElems, so a block one element too long would fit it and encode
// silently past the format's per-block cap; EncodeBlock must panic instead.
func TestEncodeBlockRejectsOversizedBlock(t *testing.T) {
	src := make([]complex128, BlockElems+1)
	defer func() {
		if recover() == nil {
			t.Errorf("EncodeBlock accepted %d elements, want a panic above BlockElems = %d", len(src), BlockElems)
		}
	}()
	deltaPlaneCodec{}.EncodeBlock(nil, src)
}
