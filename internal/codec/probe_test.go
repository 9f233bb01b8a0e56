package codec

import (
	"bytes"
	"math/rand"
	"testing"

	"soifft/internal/fft"
)

// probeVectors are the payload kinds the soifftd wire carries, at the served
// 28 672 points: the benchmark's smooth request, its spectrum (a forward
// response), the inverse transform of that spectrum (an inverse response,
// smooth again) and Gaussian noise.
func probeVectors(t *testing.T) map[string][]complex128 {
	request, spectrum := soiperfPayloads(t)
	plan, err := fft.NewPlan(len(spectrum))
	if err != nil {
		t.Fatal(err)
	}
	inverse := make([]complex128, len(spectrum))
	plan.Inverse(inverse, spectrum)
	rng := rand.New(rand.NewSource(1))
	noise := make([]complex128, len(spectrum))
	for i := range noise {
		noise[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return map[string][]complex128{"request": request, "spectrum": spectrum, "inverse": inverse, "noise": noise}
}

// TestAppendVectorIfSmaller pins the probe's verdicts on each payload kind,
// whole and shorter than one block, under the lossless codec and Quant at
// 1e-6: smooth payloads pass, spectra and noise fall back. A payload that
// passes is encoded byte for byte as AppendVector encodes it, after
// whatever dst held; one that falls back leaves dst as it was.
func TestAppendVectorIfSmaller(t *testing.T) {
	q, err := NewQuant(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	vectors := probeVectors(t)
	for _, tc := range []struct {
		c    Codec
		name string
		n    int
		pays bool
	}{
		{deltaPlaneCodec{}, "request", 28672, true},
		{deltaPlaneCodec{}, "inverse", 28672, true},
		{deltaPlaneCodec{}, "spectrum", 28672, false},
		{deltaPlaneCodec{}, "noise", 28672, false},
		{deltaPlaneCodec{}, "request", 1000, true},
		{deltaPlaneCodec{}, "noise", 1000, false},
		{deltaPlaneCodec{}, "request", 1, false}, // 16 raw bytes cannot carry a 12-byte block header
		{q, "request", 28672, true},
		{q, "spectrum", 28672, true}, // rounding 30 mantissa bits saves 13 %
		{q, "noise", 28672, false},
		{q, "request", 1000, true},
		{q, "noise", 1000, false},
	} {
		x := vectors[tc.name][:tc.n]
		prefix := []byte{0xA5, 0x5A, 0xC3}
		got, pays := AppendVectorIfSmaller(bytes.Clone(prefix), tc.c, x)
		switch {
		case pays != tc.pays:
			t.Errorf("%s %s[:%d]: pays %v, want %v", tc.c.Name(), tc.name, tc.n, pays, tc.pays)
		case !pays && !bytes.Equal(got, prefix):
			t.Errorf("%s %s[:%d]: fallback changed dst to %d bytes", tc.c.Name(), tc.name, tc.n, len(got))
		case pays && !bytes.Equal(got, append(bytes.Clone(prefix), AppendVector(nil, tc.c, x)...)):
			t.Errorf("%s %s[:%d]: encoding differs from AppendVector's stream", tc.c.Name(), tc.name, tc.n)
		}
	}
	if got, pays := AppendVectorIfSmaller(nil, deltaPlaneCodec{}, nil); pays || len(got) != 0 {
		t.Errorf("empty vector: pays %v, %d bytes", pays, len(got))
	}
}

// TestProbeThresholdIsOneEighth pins the threshold from both sides with
// first blocks of k smooth elements followed by noise: k = 1550 saves
// ≈ 11.9 % of the block (between 1/9 and 1/8) and falls back, k = 1750
// saves ≈ 13.5 % (between 1/8 and 1/7) and passes. Only the first block
// decides: the rest is the other kind, smooth after the block that falls
// back and noise after the one that passes.
func TestProbeThresholdIsOneEighth(t *testing.T) {
	v := probeVectors(t)
	smooth, noise := v["request"], v["noise"]
	for _, tc := range []struct {
		k    int
		rest []complex128
		pays bool
	}{{1550, smooth, false}, {1750, noise, true}} {
		x := append(append(append([]complex128(nil), smooth[:tc.k]...), noise[tc.k:BlockElems]...), tc.rest[BlockElems:]...)
		first := len(appendBlock(nil, deltaPlaneCodec{}, x[:BlockElems]))
		saving := 1 - float64(first)/float64(BlockElems*bytesPerElem)
		if _, pays := AppendVectorIfSmaller(nil, deltaPlaneCodec{}, x); pays != tc.pays {
			t.Errorf("first block saving %.4f: pays %v, want %v", saving, pays, tc.pays)
		}
	}
}
