package mpi

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"soifft/internal/cvec"
)

// TCP transport: a full mesh of stream connections, one per rank pair. Rank
// i listens; ranks j > i dial i and identify themselves with a hello frame.
// A reader goroutine per connection feeds the same mailbox the in-process
// transport uses, so matching semantics are identical; a payload whose
// receive is posted it reads from the socket straight into the posted
// buffer. The wire format per
// message is:
//
//	uint32 src | uint32 tag | uint32 count | count * (float64 re, float64 im)
//
// with the header words big-endian and the payload its byte image
// (internal/cvec), so a little-endian host writes a payload from, and reads
// it into, the caller's own memory: no encode, decode or staging copy. All
// ranks of a mesh run one binary. This is the "symmetric mode" stand-in:
// every rank is a peer on the interconnect, as the paper's Xeon Phi ranks
// are on InfiniBand through the host proxy.
//
// Failure discipline: mesh formation retries dials with capped exponential
// backoff under one overall deadline (so rank startup order does not
// matter), a lost connection marks that peer dead — unmatched receives
// naming it fail immediately with a typed error instead of blocking — and
// an optional per-op timeout bounds every Recv and every Send's write, so
// no operation outlives its deadline even against a silent peer.

// TCPOptions tunes mesh formation and the per-operation failure bounds.
// The zero value gets sane defaults (see ConnectTCP).
type TCPOptions struct {
	// ConnectTimeout bounds the whole mesh formation (all dials, the
	// hello handshakes and all accepts). Default 30s; negative disables.
	ConnectTimeout time.Duration
	// DialBackoff is the initial pause between dial retries (a peer's
	// listener may not be up yet). Doubles per attempt. Default 2ms.
	DialBackoff time.Duration
	// DialBackoffMax caps the backoff growth. Default 250ms.
	DialBackoffMax time.Duration
	// OpTimeout, when positive, is the default deadline applied to every
	// Recv and to every Send's wire write. RecvDeadline overrides it per
	// call. Zero means operations may block indefinitely.
	OpTimeout time.Duration
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.ConnectTimeout == 0 {
		o.ConnectTimeout = 30 * time.Second
	}
	if o.DialBackoff <= 0 {
		o.DialBackoff = 2 * time.Millisecond
	}
	if o.DialBackoffMax <= 0 {
		o.DialBackoffMax = 250 * time.Millisecond
	}
	return o
}

// TCPNode is a rank endpoint over real TCP connections.
type TCPNode struct {
	rank, size int
	opts       TCPOptions
	box        *mailbox
	conns      []net.Conn // conns[i] connects to rank i (nil for self)
	writeMu    []sync.Mutex
	listener   net.Listener
	closed     atomic.Bool
	closeOnce  sync.Once
	closeErr   error
}

var (
	_ Comm           = (*TCPNode)(nil)
	_ DeadlineRecver = (*TCPNode)(nil)
)

// ListenTCP opens rank's listener on addr (use "127.0.0.1:0" to pick a free
// port) and returns it; its address must be distributed to the other ranks
// out of band (in tests, via a slice).
func ListenTCP(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// ConnectTCP completes the mesh for the given rank with default options:
// it accepts connections from higher ranks on ln and dials every lower
// rank at addrs[i], retrying refused dials with capped exponential backoff
// (so ranks may start in any order) under a 30s overall deadline.
func ConnectTCP(rank, size int, ln net.Listener, addrs []string) (*TCPNode, error) {
	return ConnectTCPOpts(rank, size, ln, addrs, TCPOptions{})
}

// ConnectTCPOpts is ConnectTCP with explicit mesh-formation and per-op
// deadline options. addrs[i] must hold rank i's listener address for
// i < rank. The returned node is ready for Send/Recv once every rank has
// connected.
func ConnectTCPOpts(rank, size int, ln net.Listener, addrs []string, opts TCPOptions) (*TCPNode, error) {
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("mpi: rank %d out of range", rank)
	}
	opts = opts.withDefaults()
	n := &TCPNode{
		rank:     rank,
		size:     size,
		opts:     opts,
		box:      newMailbox(),
		conns:    make([]net.Conn, size),
		writeMu:  make([]sync.Mutex, size),
		listener: ln,
	}
	var deadline time.Time
	if opts.ConnectTimeout > 0 {
		deadline = time.Now().Add(opts.ConnectTimeout)
	}
	// Dial every lower rank, identifying ourselves. A refused dial means
	// the peer's listener is not up yet — retry with backoff until the
	// overall deadline.
	for peer := 0; peer < rank; peer++ {
		conn, err := dialRetry(addrs[peer], deadline, opts)
		if err != nil {
			return nil, errors.Join(&TransportError{Op: "dial", Peer: peer, Tag: -1, Err: err}, n.Close())
		}
		n.conns[peer] = conn // the node owns it from here: n.Close closes it
		if !deadline.IsZero() {
			if err := conn.SetWriteDeadline(deadline); err != nil {
				return nil, errors.Join(err, n.Close())
			}
		}
		var hello [4]byte
		binary.BigEndian.PutUint32(hello[:], uint32(rank))
		if _, err := conn.Write(hello[:]); err != nil {
			return nil, errors.Join(&TransportError{Op: "dial", Peer: peer, Tag: -1, Err: wireErr(err)}, n.Close())
		}
		if err := conn.SetWriteDeadline(time.Time{}); err != nil {
			return nil, errors.Join(err, n.Close())
		}
	}
	// Accept one connection from every higher rank, bounded by the same
	// overall deadline when the listener supports it.
	type deadliner interface{ SetDeadline(time.Time) error }
	if dl, ok := ln.(deadliner); ok && !deadline.IsZero() {
		if err := dl.SetDeadline(deadline); err != nil {
			return nil, errors.Join(err, n.Close())
		}
		defer func() {
			// Best-effort: the mesh is formed (or torn down) either way, and
			// clearing a deadline on an already-validated listener cannot
			// meaningfully fail.
			_ = dl.SetDeadline(time.Time{})
		}()
	}
	for accepted := 0; accepted < size-1-rank; accepted++ {
		conn, err := ln.Accept()
		if err != nil {
			return nil, errors.Join(&TransportError{Op: "accept", Peer: -1, Tag: -1, Err: wireErr(err)}, n.Close())
		}
		peer, err := readHello(conn, deadline)
		if err == nil && (peer <= rank || peer >= size || n.conns[peer] != nil) {
			err = fmt.Errorf("mpi: rank %d got invalid hello from %d", rank, peer)
		}
		if err != nil { // the one exit that leaves conn unowned: close it here
			return nil, errors.Join(err, conn.Close(), n.Close())
		}
		n.conns[peer] = conn
	}
	for peer, conn := range n.conns {
		if conn != nil {
			go n.readLoop(peer, conn)
		}
	}
	return n, nil
}

// readHello reads the rank an accepted connection's peer names, bounded by
// the mesh-formation deadline.
func readHello(conn net.Conn, deadline time.Time) (int, error) {
	if !deadline.IsZero() {
		if err := conn.SetReadDeadline(deadline); err != nil {
			return 0, err
		}
	}
	var hello [4]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return 0, &TransportError{Op: "accept", Peer: -1, Tag: -1, Err: wireErr(err)}
	}
	return int(binary.BigEndian.Uint32(hello[:])), conn.SetReadDeadline(time.Time{})
}

// dialRetry dials addr until it succeeds or the overall deadline passes,
// backing off exponentially (capped) between attempts.
func dialRetry(addr string, deadline time.Time, opts TCPOptions) (net.Conn, error) {
	backoff := opts.DialBackoff
	for attempt := 1; ; attempt++ {
		timeout := time.Duration(0) // 0 = no per-attempt bound
		if !deadline.IsZero() {
			timeout = time.Until(deadline)
			if timeout <= 0 {
				return nil, fmt.Errorf("%w: mesh formation deadline passed before dialing %s", ErrTimeout, addr)
			}
		}
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err == nil {
			return conn, nil
		}
		if !deadline.IsZero() && time.Now().Add(backoff).After(deadline) {
			return nil, fmt.Errorf("%w: dialing %s failed after %d attempts: %w", ErrTimeout, addr, attempt, err)
		}
		time.Sleep(backoff)
		backoff = min(backoff*2, opts.DialBackoffMax)
	}
}

// wireErr maps a network error onto the typed sentinel vocabulary:
// timeouts wrap ErrTimeout, everything else (reset, EOF, closed socket)
// wraps ErrClosed.
func wireErr(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: %w", ErrTimeout, err)
	}
	return fmt.Errorf("%w: %w", ErrClosed, err)
}

// Frame geometry. A header is three uint32s; the payload follows as its
// byte image.
const (
	frameHeaderLen = 12
	// maxFrameElems caps the element count a frame header may announce
	// (1 GiB of payload). The count comes from the peer and sizes the
	// receive buffer, so it is checked before anything is sized by it;
	// Send refuses the same payloads rather than have the peer hang up.
	maxFrameElems = 1 << 26
	// readBufLen sizes each connection's read buffer: small frames share a
	// read, and a larger payload is read past it, into its destination.
	readBufLen = 64 << 10
)

// writeFrame writes one message to w: the header and the payload's byte
// image — on a little-endian host data's own memory — in one writev.
func writeFrame(w io.Writer, src, tag int, data []complex128) error {
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(src))
	binary.BigEndian.PutUint32(hdr[4:8], uint32(tag))
	binary.BigEndian.PutUint32(hdr[8:12], uint32(len(data)))
	if b, ok := cvec.View(data); ok {
		bufs := net.Buffers{hdr[:], b}
		_, err := bufs.WriteTo(w)
		return err
	}
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	return cvec.WriteVector(w, data)
}

// readHeader reads one frame's header from br and returns its tag and
// element count. A header announcing more than maxFrameElems elements is an
// error before any buffer is sized by it.
func readHeader(br *bufio.Reader) (tag, count int, err error) {
	hdr, err := br.Peek(frameHeaderLen)
	if err != nil {
		return 0, 0, err
	}
	// hdr[0:4], the sender's claimed rank, is advisory: the connection
	// authenticates the sender.
	tag = int(binary.BigEndian.Uint32(hdr[4:8]))
	n := binary.BigEndian.Uint32(hdr[8:12])
	if n > maxFrameElems {
		return 0, 0, fmt.Errorf("frame announces %d elements, cap %d", n, maxFrameElems)
	}
	_, _ = br.Discard(frameHeaderLen) // peeked above: cannot fail
	return tag, int(n), nil
}

// readPayload reads a frame's payload of count elements from br into a
// spare buffer of the box: on a little-endian host one io.ReadFull, which
// reads past br's buffer into the payload's own memory.
func (mb *mailbox) readPayload(br *bufio.Reader, count int) ([]complex128, error) {
	data := mb.takeBuf(count)
	if err := cvec.ReadVector(br, data); err != nil {
		mb.giveBuf(data)
		return nil, err
	}
	return data, nil
}

// readLoop reads the frames from peer. A frame whose receive is posted is
// read straight into the posted buffer (where the byte image is the
// vector's memory), one whose posted receive has another length is
// discarded, and any other is read into a spare buffer of the mailbox,
// which matches or queues it.
func (n *TCPNode) readLoop(peer int, conn net.Conn) {
	br := bufio.NewReaderSize(conn, readBufLen)
	for {
		tag, count, err := readHeader(br)
		if err != nil {
			n.peerLost(peer, err)
			return
		}
		var p *recvPost
		matched := false
		if cvec.NativeImage {
			n.box.mu.Lock()
			if p, matched = n.box.match(peer, tag, count); p != nil {
				p.stopper = conn
			}
			n.box.mu.Unlock()
		}
		switch {
		case p != nil:
			err = n.readPosted(br, conn, p)
		case matched:
			_, err = br.Discard(count * cvec.BytesPerElem)
		default:
			var data []complex128
			if data, err = n.box.readPayload(br, count); err == nil {
				if n.box.put(message{src: peer, tag: tag, data: data}) != nil {
					return // the box is closed
				}
			}
		}
		if err != nil {
			n.peerLost(peer, err)
			return
		}
	}
}

// readPosted reads a frame's payload from br into the posted buffer and
// completes the post. A waiter that gives up on the post meanwhile moves the
// connection's read deadline into the past: the read stops, the post takes
// the waiter's error, and the rest of the payload is read and discarded
// with the deadline cleared, so the stream stays in step and nothing writes
// the buffer after the waiter returns. Any other read error loses the peer.
func (n *TCPNode) readPosted(br *bufio.Reader, conn net.Conn, p *recvPost) error {
	b, _ := cvec.View(p.dst)
	got, err := io.ReadFull(br, b)
	mb := n.box
	mb.mu.Lock()
	abandoned := p.abandoned
	switch {
	case err == nil:
		p.err = nil
	case abandoned && isTimeout(err):
		p.err = p.cause
	default:
		p.err = &TransportError{Op: "recv", Peer: p.src, Tag: p.tag, Err: wireErr(err)}
	}
	p.state = postDone
	mb.cond.Broadcast()
	mb.mu.Unlock()
	if !abandoned {
		return err
	}
	if derr := conn.SetReadDeadline(time.Time{}); derr != nil {
		return derr
	}
	if err != nil && isTimeout(err) {
		_, err = br.Discard(len(b) - got)
	}
	return err
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// peerLost records a broken connection: every unmatched receive naming the
// peer fails immediately with a typed error (other peers are unaffected).
// During an orderly Close of this node the loss is expected and not
// recorded.
func (n *TCPNode) peerLost(peer int, cause error) {
	if n.closed.Load() {
		return
	}
	n.box.markDead(peer, &TransportError{
		Op:   "recv",
		Peer: peer,
		Tag:  -1,
		Err:  fmt.Errorf("%w: connection to rank %d lost: %w", ErrClosed, peer, cause),
	})
}

func (n *TCPNode) Rank() int { return n.rank }
func (n *TCPNode) Size() int { return n.size }

func (n *TCPNode) Send(dst, tag int, data []complex128) error {
	if tag < 0 {
		return fmt.Errorf("mpi: negative tag %d", tag)
	}
	if dst == n.rank {
		return n.box.send(n.rank, tag, data)
	}
	if dst < 0 || dst >= n.size || n.conns[dst] == nil {
		return fmt.Errorf("mpi: send to invalid rank %d", dst)
	}
	if len(data) > maxFrameElems {
		return fmt.Errorf("mpi: send of %d elements exceeds the %d-element frame cap", len(data), maxFrameElems)
	}
	mu := &n.writeMu[dst]
	mu.Lock()
	defer mu.Unlock()
	conn := n.conns[dst]
	if d := n.opts.OpTimeout; d > 0 {
		if err := conn.SetWriteDeadline(time.Now().Add(d)); err != nil {
			return &TransportError{Op: "send", Peer: dst, Tag: tag, Err: wireErr(err)}
		}
	}
	if err := writeFrame(conn, n.rank, tag, data); err != nil {
		return &TransportError{Op: "send", Peer: dst, Tag: tag, Err: wireErr(err)}
	}
	return nil
}

func (n *TCPNode) Recv(src, tag int) ([]complex128, error) {
	var deadline time.Time
	if d := n.opts.OpTimeout; d > 0 {
		deadline = time.Now().Add(d)
	}
	return n.RecvDeadline(src, tag, deadline)
}

// RecvDeadline implements DeadlineRecver: a Recv that fails with a
// *TransportError wrapping ErrTimeout once deadline passes.
func (n *TCPNode) RecvDeadline(src, tag int, deadline time.Time) ([]complex128, error) {
	if src < 0 || src >= n.size {
		return nil, fmt.Errorf("mpi: recv from invalid rank %d", src)
	}
	data, err := n.box.get(src, tag, deadline)
	return data, recvError(src, tag, err)
}

func (n *TCPNode) postRecv(src, tag int, dst []complex128) (*recvPost, error) {
	if src < 0 || src >= n.size {
		return nil, fmt.Errorf("mpi: recv from invalid rank %d", src)
	}
	return n.box.post(src, tag, dst), nil
}

func (n *TCPNode) waitRecv(p *recvPost) error {
	var deadline time.Time
	if d := n.opts.OpTimeout; d > 0 {
		deadline = time.Now().Add(d)
	}
	src, tag := p.src, p.tag // wait releases p
	return recvError(src, tag, n.box.wait(p, deadline, false))
}

func (n *TCPNode) cancelRecv(p *recvPost) { n.box.wait(p, time.Time{}, true) }

// Close tears down the mesh and the listener.
func (n *TCPNode) Close() error {
	n.closeOnce.Do(func() {
		n.closed.Store(true)
		n.box.close()
		var errs []error
		for _, c := range n.conns {
			if c != nil {
				errs = append(errs, c.Close())
			}
		}
		if n.listener != nil {
			errs = append(errs, n.listener.Close())
		}
		n.closeErr = errors.Join(errs...)
	})
	return n.closeErr
}
