package dist

import (
	"sync"
	"testing"

	"soifft/internal/cvec"
	"soifft/internal/mpi"
	"soifft/internal/ref"
	"soifft/internal/soi"
)

// TestDistSOICodec runs the distributed SOI with each codec applied through
// SetCodec. The lossless codecs reproduce the uncompressed distributed
// result exactly; the budgeted quantizer stays within the same 10x margin
// of the designed bound the uncompressed path is held to, even when the
// caller asks for a tolerance far beyond the budget (the clamp catches it).
func TestDistSOICodec(t *testing.T) {
	const world = 4
	p := testParams(8, 2)
	x := ref.RandomVector(p.N, 31)
	want := fftRef(x)
	baseline := runDistSOI(t, world, p, soi.DefaultOptions(), x, false)
	shared, err := soi.NewPlan(p, soi.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	run := func(name string, tol float64) []complex128 {
		t.Helper()
		out := make([]complex128, p.N)
		localN := p.N / world
		var mu sync.Mutex
		err := mpi.Run(world, func(c mpi.Comm) error {
			d, err := NewSOIFromPlan(c, shared)
			if err != nil {
				return err
			}
			if err := d.SetCodec(name, tol); err != nil {
				return err
			}
			r := c.Rank()
			dst := make([]complex128, localN)
			if err := d.Forward(dst, x[r*localN:(r+1)*localN]); err != nil {
				return err
			}
			mu.Lock()
			copy(out[r*localN:], dst)
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("%s(%g): %v", name, tol, err)
		}
		return out
	}

	got := run("deltaplane", 0)
	for i := range baseline {
		if got[i] != baseline[i] {
			t.Fatalf("deltaplane elem %d: %v != %v (lossless transport changed the result)", i, got[i], baseline[i])
		}
	}

	// SetCodec's budget is derived from the plan's designed bound.
	bound := shared.EstimatedError()
	for _, tol := range []float64{0, bound * 1e6} { // 0 = budget default; huge = clamp must bite
		got := run("quant", tol)
		if e := cvec.RelErrL2(got, want); e > 10*bound {
			t.Errorf("quant(%g): error %g > 10x designed bound %g", tol, e, bound)
		}
	}
}

// TestSetCodecValidation: unknown codec names fail, identity is accepted
// and leaves the transport untouched.
func TestSetCodecValidation(t *testing.T) {
	p := testParams(4, 4)
	err := mpi.Run(1, func(c mpi.Comm) error {
		d, err := NewSOI(c, p, soi.DefaultOptions())
		if err != nil {
			return err
		}
		if err := d.SetCodec("no-such-codec", 0); err == nil {
			t.Error("unknown codec name accepted")
		}
		before := d.comm
		if err := d.SetCodec("identity", 0); err != nil {
			t.Errorf("identity: %v", err)
		}
		if d.comm != before {
			t.Error("identity codec wrapped the transport")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
