package fft

import (
	"fmt"
	"testing"

	"soifft/internal/ref"
)

// TestOutOfPlaceLeavesSourceUnchanged pins the contract that lets the first
// Stockham pass read its caller's vector in place: an out-of-place call
// never writes src, bit for bit, and an in-place call computes exactly what
// the out-of-place one does. Plans run at even and odd stage counts (the
// odd ones are those whose first pass writes dst, so in place they must
// stage their input), at the codelet sizes and through Bluestein, and
// ForwardCols reads a matrix's columns without writing them; lane
// batches read a row-major matrix's columns in place; every six-step
// variant reads its src in place, with and without fused demodulation.
func TestOutOfPlaceLeavesSourceUnchanged(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		for _, n := range []int{
			4, 8, 16, // codelets
			64, 1024, 28672, // even stage counts: 8·8, 8·8·8·2, 8·8·8·4·2·7
			256, 512, 60, 120, // odd: 8·8·4, 8·8·8, 4·3·5, 8·3·5
			17, 1009, // Bluestein
		} {
			p := MustPlan(n)
			src := ref.RandomVector(n, int64(n))
			keep := append([]complex128(nil), src...)
			for _, dir := range []Direction{Forward, Inverse} {
				what := fmt.Sprintf("plan n=%d %s", n, dirName(dir))
				out := make([]complex128, n)
				p.Transform(out, src, dir)
				if i := firstBitDiff(src, keep); i >= 0 {
					t.Fatalf("%s: src[%d] changed", what, i)
				}
				in := append([]complex128(nil), src...)
				p.Transform(in, in, dir)
				if i := firstBitDiff(in, out); i >= 0 {
					t.Fatalf("%s: in place differs at %d: %v vs %v", what, i, in[i], out[i])
				}
			}
			// Columns 0 and 1 of a three-column matrix whose column 1 is src.
			mat := ref.RandomVector(3*n, int64(n)+1)
			for k, v := range src {
				mat[3*k+1] = v
			}
			keepMat := append([]complex128(nil), mat...)
			cols := make([][]complex128, n)
			for f := range cols {
				cols[f] = make([]complex128, 2)
			}
			p.ForwardCols(cols, mat, 3, 2)
			if i := firstBitDiff(mat, keepMat); i >= 0 {
				t.Fatalf("plan n=%d: ForwardCols changed x[%d]", n, i)
			}
			want := make([]complex128, n)
			p.Forward(want, src)
			for f, w := range want {
				if g := cols[f][1]; firstBitDiff([]complex128{g}, []complex128{w}) >= 0 {
					t.Fatalf("plan n=%d: ForwardCols differs from Forward at bin %d", n, f)
				}
			}
		}

		// A lane batch reading 8 columns of a 24-wide row-major matrix in
		// place, against the same columns staged into a compact lane batch.
		for _, n := range []int{64, 256, 96} {
			const lanes, width, col = 8, 24, 5
			lb, err := NewLaneBatch(n, lanes)
			if err != nil {
				t.Fatal(err)
			}
			mat := ref.RandomVector(n*width, int64(n))
			keep := append([]complex128(nil), mat...)
			got := make([]complex128, n*lanes)
			lb.forwardFrom(got, mat[col:], width)
			if i := firstBitDiff(mat, keep); i >= 0 {
				t.Fatalf("lane n=%d: src[%d] changed", n, i)
			}
			staged := make([]complex128, n*lanes)
			for j := 0; j < n; j++ {
				copy(staged[j*lanes:(j+1)*lanes], mat[j*width+col:])
			}
			want := make([]complex128, n*lanes)
			lb.forwardFrom(want, staged, lanes)
			if i := firstBitDiff(got, want); i >= 0 {
				t.Fatalf("lane n=%d: in-place read differs from staged at %d", n, i)
			}
		}

		for _, n := range []int{1 << 12, 7 << 10} {
			src := ref.RandomVector(n, int64(n))
			keep := append([]complex128(nil), src...)
			for _, v := range AllVariants {
				for _, demod := range []bool{false, true} {
					s, err := NewSixStep(n, v, 3)
					if err != nil {
						t.Fatal(err)
					}
					if demod {
						s.SetDemod(ref.RandomVector(n, 3))
					}
					s.Forward(make([]complex128, n), src)
					if i := firstBitDiff(src, keep); i >= 0 {
						t.Fatalf("%v n=%d demod=%v: src[%d] changed", v, n, demod, i)
					}
				}
			}
		}
	})
}
