package mpi

import "fmt"

// The collectives are written against the Comm interface only, so every
// transport (in-process, TCP) and middleware gets them for free. Each
// collective uses its own reserved tag sub-range so concurrent user traffic
// with ordinary tags can never interfere.

const (
	tagAllToAll = collectiveTagBase + iota
	tagBarrier
	// Barrier offsets its round index into the tag, spaced far enough
	// apart to never collide.
	tagStride = 1 << 20
)

// AllToAll exchanges send[i] -> rank i and returns recv[i] received from
// rank i. len(send) must equal Size(). This is the P_erm all-to-all of
// Equation 1. The schedule is the classic pairwise exchange: P-1 rounds, in
// round k rank r exchanges with partner r XOR k when P is a power of two
// (perfectly conflict-free on fat trees) and with (r+k) % P / (r-k) % P
// otherwise.
func AllToAll(c Comm, send [][]complex128) ([][]complex128, error) {
	p := c.Size()
	if len(send) != p {
		return nil, fmt.Errorf("mpi: AllToAll send has %d blocks, world size %d", len(send), p)
	}
	r := c.Rank()
	recv := make([][]complex128, p)
	// Local block never travels; copy to preserve Send's value semantics.
	recv[r] = append([]complex128(nil), send[r]...)
	for k := 1; k < p; k++ {
		to, from := exchangePartners(r, p, k)
		if err := c.Send(to, tagAllToAll+k, send[to]); err != nil {
			return nil, err
		}
		data, err := c.Recv(from, tagAllToAll+k)
		if err != nil {
			return nil, err
		}
		recv[from] = data
	}
	return recv, nil
}

// AllToAllInto is AllToAll into caller-owned buffers: the block from rank i
// must hold exactly len(recv[i]) elements and is written there, so a caller
// that passes views of one vector assembles it without a further copy, and
// the local block is copied once, send[r] to recv[r]. Nothing here
// allocates in proportion to the payload. A block of any other length is a
// *TransportError wrapping a *SizeError, and its buffer is left untouched.
func AllToAllInto(c Comm, send, recv [][]complex128) error {
	p := c.Size()
	if len(send) != p || len(recv) != p {
		return fmt.Errorf("mpi: AllToAllInto has %d send and %d receive blocks, world size %d", len(send), len(recv), p)
	}
	r := c.Rank()
	if len(send[r]) != len(recv[r]) {
		return &TransportError{Op: "recv", Peer: r, Tag: tagAllToAll, Err: &SizeError{Got: len(send[r]), Want: len(recv[r])}}
	}
	copy(recv[r], send[r])
	for k := 1; k < p; k++ {
		to, from := exchangePartners(r, p, k)
		if err := c.Send(to, tagAllToAll+k, send[to]); err != nil {
			return err
		}
		if err := recvInto(c, recv[from], from, tagAllToAll+k); err != nil {
			return err
		}
	}
	return nil
}

// exchangePartners returns whom rank r of p sends to and receives from in
// round k of the pairwise exchange. Each round has its own tag within the
// reserved space.
func exchangePartners(r, p, k int) (to, from int) {
	if p&(p-1) == 0 {
		return r ^ k, r ^ k
	}
	return (r + k) % p, (r - k + p) % p
}

// Barrier blocks until every rank has entered it (dissemination barrier,
// ceil(log2 P) rounds).
func Barrier(c Comm) error {
	p := c.Size()
	r := c.Rank()
	for k, round := 1, 0; k < p; k, round = k<<1, round+1 {
		to := (r + k) % p
		from := (r - k + p) % p
		tag := tagBarrier + round*tagStride
		if err := c.Send(to, tag, nil); err != nil {
			return err
		}
		if _, err := c.Recv(from, tag); err != nil {
			return err
		}
	}
	return nil
}
