package codec

import (
	"math/rand"
	"testing"
)

// BenchmarkDeltaPlane prices the block kernels on the three payload kinds
// the repository moves: the benchmark's smooth request, its spectrum (the
// response) and incompressible Gaussian noise, all at n = 28 672. MB/s is
// raw payload bytes; ratio is raw over encoded.
func BenchmarkDeltaPlane(b *testing.B) {
	smooth, spectrum := soiperfPayloads(b)
	rng := rand.New(rand.NewSource(1))
	noise := make([]complex128, len(smooth))
	for i := range noise {
		noise[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	c := deltaPlaneCodec{}
	for _, v := range []struct {
		name string
		x    []complex128
	}{{"smooth", smooth}, {"spectrum", spectrum}, {"noise", noise}} {
		raw := int64(len(v.x) * bytesPerElem)
		enc := AppendVector(nil, c, v.x)
		ratio := float64(raw) / float64(len(enc))
		b.Run("enc/"+v.name, func(b *testing.B) {
			b.SetBytes(raw)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				enc = AppendVector(enc[:0], c, v.x)
			}
			b.ReportMetric(ratio, "ratio")
		})
		b.Run("dec/"+v.name, func(b *testing.B) {
			dst := make([]complex128, len(v.x))
			b.SetBytes(raw)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := DecodeVector(dst, c, enc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}
