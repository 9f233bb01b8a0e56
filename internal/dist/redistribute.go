package dist

import (
	"fmt"

	"soifft/internal/mpi"
)

// Data redistribution helpers. The distributed FFTs in this package consume
// and produce BLOCK-distributed vectors (rank p owns the contiguous range
// [p*N/P, (p+1)*N/P)), the layout the paper's in-order transforms use.
// Applications whose data arrives CYCLIC-distributed (element i on rank
// i mod P — common for load-balanced producers) can convert with one
// all-to-all in each direction.

// BlockToCyclic converts this rank's block of a block-distributed vector
// into its share of the cyclic distribution. localN must be equal on all
// ranks and divisible by the world size.
func BlockToCyclic(c mpi.Comm, local []complex128) ([]complex128, error) {
	p := c.Size()
	localN := len(local)
	if localN%p != 0 {
		return nil, fmt.Errorf("dist: local length %d not divisible by world %d", localN, p)
	}
	r := c.Rank()
	per := localN / p
	// Element at local index i has global index g = r*localN + i; it
	// belongs to cyclic rank g mod p at cyclic-local position g / p.
	// Within my block, destination q owns the elements with
	// (r*localN + i) mod p == q — a stride-p comb starting at offset
	// ((q - r*localN) mod p).
	send := make([][]complex128, p)
	for q := 0; q < p; q++ {
		off := ((q-r*localN)%p + p) % p
		blk := make([]complex128, per)
		for k := 0; k < per; k++ {
			blk[k] = local[off+k*p]
		}
		send[q] = blk
	}
	recv, err := mpi.AllToAll(c, send)
	if err != nil {
		return nil, err
	}
	// My cyclic share: global indices g == r (mod p), ordered by g/p. The
	// piece from source rank s covers g in [s*localN, (s+1)*localN), i.e.
	// cyclic-local positions [s*per, (s+1)*per).
	out := make([]complex128, localN)
	for s := 0; s < p; s++ {
		if len(recv[s]) != per {
			return nil, &ShapeError{What: fmt.Sprintf("redistribution block from %d elements", s), Got: len(recv[s]), Want: per}
		}
		copy(out[s*per:], recv[s])
	}
	return out, nil
}

// CyclicToBlock is the inverse of BlockToCyclic.
func CyclicToBlock(c mpi.Comm, local []complex128) ([]complex128, error) {
	p := c.Size()
	localN := len(local)
	if localN%p != 0 {
		return nil, fmt.Errorf("dist: local length %d not divisible by world %d", localN, p)
	}
	r := c.Rank()
	per := localN / p
	// My cyclic elements have global indices g = r + j*p (j = local pos).
	// Destination block rank q owns g in [q*localN, (q+1)*localN) — the
	// contiguous run of j in [q*per, (q+1)*per).
	send := make([][]complex128, p)
	for q := 0; q < p; q++ {
		send[q] = local[q*per : (q+1)*per]
	}
	recv, err := mpi.AllToAll(c, send)
	if err != nil {
		return nil, err
	}
	// From source s arrive my block's elements with g mod p == s, ordered
	// by g/p: local index i = off + k*p with off = ((s - r*localN) mod p).
	out := make([]complex128, localN)
	for s := 0; s < p; s++ {
		if len(recv[s]) != per {
			return nil, &ShapeError{What: fmt.Sprintf("redistribution block from %d elements", s), Got: len(recv[s]), Want: per}
		}
		off := ((s-r*localN)%p + p) % p
		for k, v := range recv[s] {
			out[off+k*p] = v
		}
	}
	return out, nil
}
