package wire

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"soifft/internal/codec"
	"soifft/internal/fft"
)

// resultKinds are the payload kinds a result frame carries, n points each:
// a smooth signal, its spectrum (a forward response), the inverse transform
// of that spectrum (an inverse response, smooth again) and Gaussian noise.
func resultKinds(t *testing.T, n int) map[string][]complex128 {
	t.Helper()
	smooth := make([]complex128, n)
	for _, tone := range []struct{ bin, amp float64 }{{1, 1}, {4, 0.7}, {9, 0.3}} {
		for i := range smooth {
			s, c := math.Sincos(2 * math.Pi * tone.bin * float64(i) / float64(n))
			smooth[i] += complex(tone.amp*c, tone.amp*s)
		}
	}
	plan, err := fft.NewPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	spectrum, inverse := make([]complex128, n), make([]complex128, n)
	plan.Forward(spectrum, smooth)
	plan.Inverse(inverse, spectrum)
	rng := rand.New(rand.NewSource(3))
	noise := make([]complex128, n)
	for i := range noise {
		noise[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return map[string][]complex128{"smooth": smooth, "spectrum": spectrum, "inverse": inverse, "noise": noise}
}

// TestWriteResultCodecProbe: a result payload whose first codec block pays
// goes out encoded, byte for byte codec.AppendVector's stream under the
// codec's own header; one that does not goes out as a v2 identity frame
// (Codec = Identity, CodecParam = 0, PayloadLen = 16·n) carrying the
// vector's exact bits, which CheckTransformPayload accepts as it stands.
// Served sizes and one shorter than a codec block.
func TestWriteResultCodecProbe(t *testing.T) {
	q, err := codec.NewQuant(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	dp := codec.MustFor(codec.DeltaPlane, 0)
	for _, n := range []int{28672, 1000} {
		kinds := resultKinds(t, n)
		for _, tc := range []struct {
			c       codec.Codec
			kind    string
			encoded bool
		}{
			{dp, "smooth", true},
			{dp, "inverse", true},
			{dp, "spectrum", false},
			{dp, "noise", false},
			{q, "smooth", true},
			{q, "noise", false},
		} {
			x := kinds[tc.kind]
			var buf bytes.Buffer
			w := NewWriter(&buf, 64<<10)
			encoded, err := WriteResultCodec(w, Version, 5, 1, x, tc.c)
			if err == nil {
				err = w.Flush()
			}
			if err != nil {
				t.Fatal(err)
			}
			name := tc.c.Name() + "/" + tc.kind
			if encoded != tc.encoded {
				t.Errorf("n=%d %s: encoded %v, want %v", n, name, encoded, tc.encoded)
				continue
			}
			h, err := ReadHeader(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckTransformPayload(&h); err != nil {
				t.Errorf("n=%d %s: %v", n, name, err)
			}
			if encoded {
				if h.Codec != tc.c.ID() || h.CodecParam != codec.Param(tc.c) || !bytes.Equal(buf.Bytes(), codec.AppendVector(nil, tc.c, x)) {
					t.Errorf("n=%d %s: header %+v, payload not AppendVector's stream", n, name, h)
				}
				continue
			}
			if h.Version != 2 || h.Codec != codec.Identity || h.CodecParam != 0 || h.PayloadLen != uint64(n)*BytesPerElem {
				t.Errorf("n=%d %s: fallback header %+v, want a v2 identity frame of %d bytes", n, name, h, n*BytesPerElem)
			}
			if !bytes.Equal(buf.Bytes(), referenceImage(x)) {
				t.Errorf("n=%d %s: fallback payload is not the vector's image", n, name)
			}
		}
	}
}
