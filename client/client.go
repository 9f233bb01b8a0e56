// Package client is the Go client for soifftd, the batched FFT server
// (internal/serve, protocol in internal/wire).
//
// A Client owns one connection and is safe for concurrent use: calls from
// many goroutines are pipelined over the single connection (each request
// carries an ID; responses arrive in completion order and are matched back
// to their callers). Pipelining is what lets the server coalesce concurrent
// same-length requests into one batched kernel call, so for throughput,
// prefer one shared Client with many calling goroutines over many
// single-call connections.
//
//	cl, err := client.Dial("localhost:7311")
//	...
//	dst := make([]complex128, len(src))
//	err = cl.Forward(ctx, dst, src) // dst ~ FFT(src)
//
// Typed errors cross the wire: a shed request returns an error satisfying
// errors.Is(err, wire.ErrOverloaded); an expired deadline returns
// wire.ErrDeadlineExceeded; a draining server returns wire.ErrShuttingDown.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"soifft/internal/codec"
	"soifft/internal/wire"
)

// Alg re-exports the wire algorithm selector.
type Alg = wire.Alg

// Algorithm selectors: the server picks (Auto), the exact mixed-radix FFT
// (Exact), or the paper's approximate SOI factorization (SOI).
const (
	Auto  = wire.AlgAuto
	Exact = wire.AlgExact
	SOI   = wire.AlgSOI
)

// ErrClosed is returned by calls on a closed client.
var ErrClosed = errors.New("soifft client: connection closed")

// defaultIOTimeout bounds each request write and each in-frame response
// read when no sooner context deadline applies. See SetIOTimeout.
const defaultIOTimeout = time.Minute

// pending tracks one in-flight request: the reader goroutine fills dst and
// signals ch.
type pending struct {
	dst []complex128
	ch  chan error
}

// Client is a pipelined soifftd connection. Safe for concurrent use.
type Client struct {
	alg   Alg
	codec codec.Codec // nil = identity (raw payloads, protocol version 1)

	// ioTimeout (nanoseconds) bounds each request write and each in-frame
	// response read; between frames the reader parks without a deadline.
	ioTimeout atomic.Int64

	wmu    sync.Mutex // serializes request frames onto bw
	conn   net.Conn
	bw     *bufio.Writer
	nextID uint64

	pmu      sync.Mutex
	inflight map[uint64]*pending
	stats    map[uint64]chan statsResult
	closed   error // non-nil once the connection is unusable

	readerDone chan struct{}
}

type statsResult struct {
	text string
	err  error
}

// Dial connects to a soifftd server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return New(conn), nil
}

// New wraps an established connection (useful for tests and custom dialers).
func New(conn net.Conn) *Client {
	c := &Client{
		conn:       conn,
		bw:         bufio.NewWriterSize(conn, 64<<10),
		inflight:   make(map[uint64]*pending),
		stats:      make(map[uint64]chan statsResult),
		readerDone: make(chan struct{}),
	}
	c.ioTimeout.Store(int64(defaultIOTimeout))
	go c.readLoop()
	return c
}

// SetAlg sets the algorithm selector used by Forward/Inverse/Batch
// (default Auto). Not safe to race with in-flight calls.
func (c *Client) SetAlg(a Alg) { c.alg = a }

// SetCodec selects the payload compression codec by name ("identity",
// "deltaplane", "quant"); tol is the Quant per-element relative error
// bound, ignored otherwise. With the identity codec the client speaks
// protocol version 1 (raw payloads), so it interoperates with pre-codec
// servers; any other codec requires a version-2 server. Responses decode
// by their own headers, so the server may answer with a different codec
// (e.g. after clamping a lossy request against an SOI accuracy budget).
// Not safe to race with in-flight calls.
func (c *Client) SetCodec(name string, tol float64) error {
	cdc, err := codec.ByName(name, tol)
	if err != nil {
		return err
	}
	if cdc.ID() == codec.Identity {
		cdc = nil
	}
	c.codec = cdc
	return nil
}

// SetIOTimeout bounds each request write and each in-frame response read
// (default one minute); a sooner context deadline takes precedence for
// writes. A server that stops reading wedges the writer through TCP
// backpressure, and one that stalls mid-response wedges the shared
// demultiplexer — the bound turns both into errors. Non-positive values
// are ignored.
func (c *Client) SetIOTimeout(d time.Duration) {
	if d > 0 {
		c.ioTimeout.Store(int64(d))
	}
}

// writeDeadline bounds one request write: the I/O timeout from now, or the
// context deadline if that is sooner.
func (c *Client) writeDeadline(ctx context.Context) time.Time {
	wd := time.Now().Add(time.Duration(c.ioTimeout.Load()))
	if dl, ok := ctx.Deadline(); ok && dl.Before(wd) {
		wd = dl
	}
	return wd
}

// Close tears the connection down; in-flight calls fail with ErrClosed.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.readerDone
	return err
}

// Forward computes the unnormalized forward DFT of src into dst on the
// server. len(dst) must equal len(src). Respects ctx deadline/cancellation;
// the deadline also propagates to the server's admission control.
func (c *Client) Forward(ctx context.Context, dst, src []complex128) error {
	return c.transform(ctx, dst, src, 1, false)
}

// Inverse computes the normalized inverse DFT of src into dst on the server.
func (c *Client) Inverse(ctx context.Context, dst, src []complex128) error {
	return c.transform(ctx, dst, src, 1, true)
}

// Batch computes count independent transforms of n = len(src)/count points
// each (transform i occupies src[i*n:(i+1)*n], result in the same span of
// dst) in a single request frame.
func (c *Client) Batch(ctx context.Context, dst, src []complex128, count int, inverse bool) error {
	return c.transform(ctx, dst, src, count, inverse)
}

func (c *Client) transform(ctx context.Context, dst, src []complex128, count int, inverse bool) error {
	if len(dst) != len(src) {
		return fmt.Errorf("soifft client: len(dst)=%d != len(src)=%d", len(dst), len(src))
	}
	if count < 1 || len(src)%count != 0 {
		return fmt.Errorf("soifft client: count %d does not divide %d points", count, len(src))
	}
	n := len(src) / count
	h := wire.Header{
		Alg:   c.alg,
		Count: uint32(count),
		N:     uint64(n),
	}
	switch {
	case count > 1:
		h.Type = wire.TBatch
		if inverse {
			h.Flags = wire.FlagInverse
		}
	case inverse:
		h.Type = wire.TInverse
	default:
		h.Type = wire.TForward
	}
	if dl, ok := ctx.Deadline(); ok {
		h.Deadline = dl.UnixNano()
	}

	p := &pending{dst: dst, ch: make(chan error, 1)}
	id, err := c.register(p, nil)
	if err != nil {
		return err
	}
	h.ReqID = id

	if err := c.send(ctx, &h, src); err != nil {
		c.unregister(id)
		return fmt.Errorf("soifft client: sending request: %w", err)
	}

	select {
	case err := <-p.ch:
		return err
	case <-ctx.Done():
		// The response may still arrive; the reader discards it into dst
		// only if the pending entry survives, so remove it first.
		c.unregister(id)
		return ctx.Err()
	}
}

// send writes one request frame carrying src, completing h's version, codec
// and payload-length fields. Identity payloads go out as protocol version 1
// — byte-identical to a pre-codec client, so old servers need no fallback
// logic. A compressing codec needs the v2 header fields and stages the
// encoded payload in a pooled buffer, held until the write has returned, to
// learn its declared length.
func (c *Client) send(ctx context.Context, h *wire.Header, src []complex128) error {
	var enc []byte
	if c.codec == nil {
		h.Version = 1
		h.PayloadLen = uint64(len(src)) * wire.BytesPerElem
	} else {
		st := codec.BorrowStaging(len(src))
		defer codec.ReturnStaging(st)
		enc = codec.AppendVector(*st, c.codec, src)
		h.Codec = c.codec.ID()
		h.CodecParam = codec.Param(c.codec)
		h.PayloadLen = uint64(len(enc))
	}

	c.wmu.Lock()
	defer c.wmu.Unlock()
	err := c.conn.SetWriteDeadline(c.writeDeadline(ctx))
	if err == nil {
		err = wire.WriteHeader(c.bw, h)
	}
	if err == nil {
		if enc != nil {
			_, err = c.bw.Write(enc)
		} else {
			err = wire.WriteVector(c.bw, src)
		}
	}
	if err == nil {
		err = c.bw.Flush()
	}
	return err
}

// Stats fetches the server's statistics snapshot as a name -> value map
// (the parsed form of the metrics text; see internal/serve.MetricsText).
func (c *Client) Stats(ctx context.Context) (map[string]float64, error) {
	ch := make(chan statsResult, 1)
	id, err := c.register(nil, ch)
	if err != nil {
		return nil, err
	}
	h := wire.Header{Type: wire.TStats, ReqID: id}
	if c.codec == nil {
		h.Version = 1 // stay readable by pre-codec servers
	}
	c.wmu.Lock()
	err = c.conn.SetWriteDeadline(c.writeDeadline(ctx))
	if err == nil {
		err = wire.WriteHeader(c.bw, &h)
	}
	if err == nil {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		c.unregister(id)
		return nil, fmt.Errorf("soifft client: sending stats request: %w", err)
	}
	select {
	case res := <-ch:
		if res.err != nil {
			return nil, res.err
		}
		return ParseStats(res.text), nil
	case <-ctx.Done():
		c.unregister(id)
		return nil, ctx.Err()
	}
}

// ParseStats parses metrics text ("name value" lines) into a map.
func ParseStats(text string) map[string]float64 {
	m := make(map[string]float64)
	for _, ln := range strings.Split(text, "\n") {
		name, val, ok := strings.Cut(strings.TrimSpace(ln), " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			m[name] = f
		}
	}
	return m
}

// StatsNames returns the sorted metric names in m (stable rendering for
// CLIs).
func StatsNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func (c *Client) register(p *pending, sch chan statsResult) (uint64, error) {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if c.closed != nil {
		return 0, c.closed
	}
	c.nextID++
	id := c.nextID
	if p != nil {
		c.inflight[id] = p
	}
	if sch != nil {
		c.stats[id] = sch
	}
	return id, nil
}

func (c *Client) unregister(id uint64) {
	c.pmu.Lock()
	delete(c.inflight, id)
	delete(c.stats, id)
	c.pmu.Unlock()
}

// take claims the pending entry for id (nil if cancelled/unknown).
func (c *Client) take(id uint64) *pending {
	c.pmu.Lock()
	p := c.inflight[id]
	delete(c.inflight, id)
	c.pmu.Unlock()
	return p
}

func (c *Client) takeStats(id uint64) chan statsResult {
	c.pmu.Lock()
	ch := c.stats[id]
	delete(c.stats, id)
	c.pmu.Unlock()
	return ch
}

// readLoop demultiplexes response frames to their waiting callers.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	br := bufio.NewReaderSize(c.conn, 64<<10)
	var fatal error
	for {
		h, err := wire.ReadHeader(br)
		if err != nil {
			fatal = err
			break
		}
		// The header promises a payload: bound the in-frame reads so a
		// server that stalls mid-frame cannot wedge every caller behind a
		// silently stuck demultiplexer.
		if err := c.conn.SetReadDeadline(time.Now().Add(time.Duration(c.ioTimeout.Load()))); err != nil {
			fatal = err
			break
		}
		switch h.Type {
		case wire.TResult:
			// The response header comes from the server, which is just as
			// untrusted as a client is to it: the geometry product is
			// overflow-checked and tied to PayloadLen (exactly for identity,
			// through the codec size algebra otherwise) before any read is
			// sized from it. An inconsistent response is a protocol
			// violation the stream cannot be resynced past.
			p := c.take(h.ReqID)
			elems, serr := wire.CheckedSize(h.N, h.Count)
			if serr != nil || wire.CheckTransformPayload(&h) != nil {
				fatal = fmt.Errorf("soifft client: invalid response geometry n=%d count=%d codec=%v payload=%d", h.N, h.Count, h.Codec, h.PayloadLen)
				if p != nil {
					p.ch <- fatal
				}
			} else if p == nil || elems != len(p.dst) {
				// Cancelled caller or geometry mismatch: drop the payload.
				// CheckTransformPayload bounded PayloadLen through the codec
				// size algebra for this geometry.
				if err := wire.DiscardPayload(br, h.PayloadLen); err != nil {
					fatal = err
				}
				if p != nil {
					p.ch <- fmt.Errorf("soifft client: server returned %dx%d points, caller expected %d",
						h.Count, h.N, len(p.dst))
				}
			} else if h.Codec != codec.Identity {
				// The response decodes by its own header, not by what this
				// client asked for — the server may have clamped a lossy
				// request to fit an accuracy budget. A corrupt block stream
				// is a typed error; the stream position within the payload is
				// then unknown, so the connection is done.
				rc, rcErr := codec.For(h.Codec, h.CodecParam)
				if rcErr != nil {
					fatal = fmt.Errorf("soifft client: response codec: %w", rcErr)
					p.ch <- fatal
				} else if err := codec.ReadVector(br, rc, p.dst, h.PayloadLen); err != nil {
					p.ch <- fmt.Errorf("soifft client: result payload: %w", err)
					fatal = err
				} else {
					p.ch <- nil
				}
			} else if err := wire.ReadVector(br, p.dst); err != nil {
				p.ch <- err
				fatal = err
			} else {
				p.ch <- nil
			}
		case wire.TError:
			msg, err := wire.ReadText(br, h.PayloadLen)
			if err != nil {
				fatal = err
				break
			}
			if p := c.take(h.ReqID); p != nil {
				p.ch <- wire.ErrFor(h.Code, msg)
			}
		case wire.TStatsResult:
			text, err := wire.ReadText(br, h.PayloadLen)
			if err != nil {
				fatal = err
				break
			}
			if ch := c.takeStats(h.ReqID); ch != nil {
				ch <- statsResult{text: text}
			}
		default:
			fatal = fmt.Errorf("soifft client: unexpected frame type %v", h.Type)
		}
		if fatal != nil {
			break
		}
		// Frame consumed: back to the unbounded idle park.
		if err := c.conn.SetReadDeadline(time.Time{}); err != nil {
			fatal = err
			break
		}
	}

	// Fail everything still in flight.
	c.pmu.Lock()
	c.closed = fmt.Errorf("%w: %v", ErrClosed, fatal)
	inflight := c.inflight
	stats := c.stats
	c.inflight = make(map[uint64]*pending)
	c.stats = make(map[uint64]chan statsResult)
	c.pmu.Unlock()
	for _, p := range inflight {
		p.ch <- c.closedErr()
	}
	for _, ch := range stats {
		ch <- statsResult{err: c.closedErr()}
	}
}

func (c *Client) closedErr() error {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.closed
}

// WaitReady polls addr until a soifftd server accepts a connection or the
// timeout elapses — a convenience for tests and load generators racing a
// freshly started daemon.
func WaitReady(addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			conn.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("soifft client: server at %s not ready after %v: %w", addr, timeout, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
