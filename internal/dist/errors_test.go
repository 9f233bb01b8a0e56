package dist

import (
	"errors"
	"fmt"
	"testing"

	"soifft/internal/mpi"
	"soifft/internal/ref"
	"soifft/internal/soi"
)

// TestShapeErrorMessage pins the rendered form: what was mis-shaped, the
// observed length, the required length.
func TestShapeErrorMessage(t *testing.T) {
	e := &ShapeError{What: "ghost piece 2 elems", Got: 5, Want: 7}
	if got, want := e.Error(), "dist: ghost piece 2 elems: got 5, want 7"; got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
}

// TestShortBuffersReturnShapeError: the caller-facing length checks in
// SOI.Forward/Inverse and CT.Forward surface as *ShapeError with the
// observed and required lengths, retrievable via errors.As.
func TestShortBuffersReturnShapeError(t *testing.T) {
	p := testParams(8, 4)
	plan, err := soi.NewPlan(p, soi.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	world := 2
	if err := mpi.Run(world, func(c mpi.Comm) error {
		d, err := NewSOIFromPlan(c, plan)
		if err != nil {
			return err
		}
		localN := p.N / world
		short := make([]complex128, localN-1)
		full := make([]complex128, localN)

		for _, try := range []func() error{
			func() error { return d.Forward(short, full) },
			func() error { return d.Forward(full, short) },
			func() error { return d.Inverse(short, full) },
		} {
			err := try()
			var se *ShapeError
			if !errors.As(err, &se) {
				return fmt.Errorf("error %v is not a *ShapeError", err)
			}
			if se.Got != localN-1 || se.Want != localN {
				return fmt.Errorf("ShapeError = %+v, want Got %d Want %d", se, localN-1, localN)
			}
		}

		ct, err := NewCT(c, p.N, 1)
		if err != nil {
			return err
		}
		var se *ShapeError
		if err := ct.Forward(short, full); !errors.As(err, &se) {
			return fmt.Errorf("CT.Forward error %v is not a *ShapeError", err)
		} else if se.Want != localN || se.Got != localN-1 {
			return fmt.Errorf("CT ShapeError = %+v", se)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// longGhost is one rank's communicator that sends its first ghost piece
// one element too long: the piece's receiver disagrees with it on the
// geometry, and nothing else about the transform is wrong.
type longGhost struct {
	mpi.Comm
	sent bool
}

func (c *longGhost) Send(dst, tag int, data []complex128) error {
	if tag == tagGhost+1 && !c.sent {
		c.sent = true
		data = append(data[:len(data):len(data)], 0)
	}
	return c.Comm.Send(dst, tag, data)
}

// TestGhostExchangeRejectsMisSizedPiece: a ghost piece of the wrong length
// fails Forward on the rank that receives it with a *ShapeError naming the
// piece and its sender — on its own, not because a later all-to-all also
// fails: the all-to-alls here are intact.
func TestGhostExchangeRejectsMisSizedPiece(t *testing.T) {
	const world, liar = 4, 1
	p := testParams(4, 4)
	plan, err := soi.NewPlan(p, soi.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	x := ref.RandomVector(p.N, 77)
	localN := p.N / world
	err = mpi.Run(world, func(c mpi.Comm) error {
		r := c.Rank()
		if r == liar {
			c = &longGhost{Comm: c}
		}
		d, err := NewSOIFromPlan(c, plan)
		if err != nil {
			return err
		}
		dst := make([]complex128, localN)
		return d.Forward(dst, x[r*localN:(r+1)*localN])
	})
	var se *ShapeError
	if !errors.As(err, &se) {
		t.Fatalf("Forward = %v, want a *ShapeError naming the ghost piece", err)
	}
	if want := fmt.Sprintf("ghost piece 1 elems from rank %d", liar); se.What != want || se.Got != se.Want+1 {
		t.Fatalf("ShapeError = %+v, want What %q and Got = Want+1", se, want)
	}
}
