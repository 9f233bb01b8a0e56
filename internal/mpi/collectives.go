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
// that passes views of one vector assembles it without a further copy. The
// local block is copied send[r] to recv[r], unless the two are the same
// memory. Nothing here allocates in proportion to the payload. A block of
// any other length is a *TransportError wrapping a *SizeError, and its
// buffer is left untouched. It is AllToAllsInto with one exchange.
func AllToAllInto(c Comm, send, recv [][]complex128) error {
	return AllToAllsInto(c, [][][]complex128{send}, [][][]complex128{recv}, nil, nil)
}

// AllToAllsInto runs len(send) AllToAllInto exchanges in order, exchange g
// from send[g] into recv[g]. On the two transports every exchange's
// receives are posted first, so that a block that arrives early still lands
// straight in its buffer. fill, when non-nil, runs next, before the first
// send: it is where the caller writes the send blocks, while the peers'
// blocks may already arrive (an error from it is returned). done(g), when
// non-nil, runs as soon as exchange g has arrived, before exchange g+1
// starts. Neither may touch a receive buffer still posted: recv[g'] for
// every g' > g. Every posted receive is completed or withdrawn before
// AllToAllsInto returns, on every path. Rounds of one exchange share their
// tags with the next; messages of one pair and tag are matched in the order
// they were sent, exchange by exchange.
func AllToAllsInto(c Comm, send, recv [][][]complex128, fill func() error, done func(g int)) error {
	p, r := c.Size(), c.Rank()
	if len(send) != len(recv) {
		return fmt.Errorf("mpi: AllToAllsInto has %d send and %d receive exchanges", len(send), len(recv))
	}
	for g := range send {
		if len(send[g]) != p || len(recv[g]) != p {
			return fmt.Errorf("mpi: AllToAllInto has %d send and %d receive blocks, world size %d", len(send[g]), len(recv[g]), p)
		}
		if len(send[g][r]) != len(recv[g][r]) {
			return sizeError(r, tagAllToAll, len(send[g][r]), len(recv[g][r]))
		}
	}
	pc, posting := c.(poster)
	var posts []*recvPost
	if posting {
		posts = make([]*recvPost, 0, len(recv)*(p-1))
		defer func() {
			for _, post := range posts {
				pc.cancelRecv(post)
			}
		}()
		for g := range recv {
			for k := 1; k < p; k++ {
				_, from := exchangePartners(r, p, k)
				post, err := pc.postRecv(from, tagAllToAll+k, recv[g][from])
				if err != nil {
					return err
				}
				posts = append(posts, post)
			}
		}
	}
	if fill != nil {
		if err := fill(); err != nil {
			return err
		}
	}
	for g := range send {
		if len(send[g][r]) > 0 && &send[g][r][0] != &recv[g][r][0] {
			copy(recv[g][r], send[g][r])
		}
		for k := 1; k < p; k++ {
			to, from := exchangePartners(r, p, k)
			if err := c.Send(to, tagAllToAll+k, send[g][to]); err != nil {
				return err
			}
			var err error
			if posting {
				err = pc.waitRecv(posts[0])
				posts = posts[1:]
			} else {
				err = recvInto(c, recv[g][from], from, tagAllToAll+k)
			}
			if err != nil {
				return err
			}
		}
		if done != nil {
			done(g)
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
