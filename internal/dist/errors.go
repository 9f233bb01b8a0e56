package dist

import "fmt"

// ShapeError reports a buffer passed by the caller, or a message received
// from a peer, whose length violates the relation the geometry requires. The distributed protocol treats
// the two cases very differently — a short caller buffer is a local bug,
// while a mis-sized received block means rank disagreement on the problem
// geometry — but both carry the same three facts: what was mis-shaped, the
// length observed, and the length the relation requires. Callers retrieve
// them with errors.As.
type ShapeError struct {
	What string // the mis-shaped quantity, e.g. "buffers", "ghost piece 2"
	Got  int    // observed length
	Want int    // required length (a minimum for buffers, exact for messages)
}

func (e *ShapeError) Error() string {
	return fmt.Sprintf("dist: %s: got %d, want %d", e.What, e.Got, e.Want)
}
