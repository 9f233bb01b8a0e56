// Package serve implements soifftd's serving engine: a TCP front end over
// the internal/wire protocol, per-size batching queues that coalesce
// same-length requests into one worker pass over the cached plan for that
// length, a single-flight LRU plan cache, bounded admission control,
// deadline propagation, and graceful drain.
//
// The batching discipline (DESIGN.md §8): requests are grouped by
// (length, direction, algorithm); an executor worker drains up to MaxBatch
// transforms from one group and runs them one after another on a single
// plan lookup, each reading its request's buffer in place. Because
// responses carry request IDs, a connection may pipeline, and the
// per-connection writer flushes once per burst of completed responses
// rather than once per response — batching therefore amortizes the plan
// lookup, the worker hand-off and the response syscalls, which is where the
// throughput of small hot sizes comes from.
package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"time"

	"soifft"
	"soifft/internal/codec"
	"soifft/internal/fft"
	"soifft/internal/trace"
	"soifft/internal/wire"
)

// exactCacheSize bounds the exact-plan LRU, keyed by transform length.
const exactCacheSize = 64

// Config tunes a Server. Zero values select the documented defaults.
type Config struct {
	// MaxInFlight bounds admitted-but-unfinished transforms; admission
	// beyond it sheds load with wire.ErrOverloaded. Default 256.
	MaxInFlight int
	// MaxBatch bounds the transforms one worker takes from a queue per
	// pass. Default 32. 1 disables batching (the comparison baseline).
	MaxBatch int
	// Workers is the executor pool size. Default GOMAXPROCS.
	Workers int
	// PlanCacheSize bounds the SOI plan LRU. Default 32.
	PlanCacheSize int
	// SOI supplies the structural knobs for SOI plans (Workers is
	// overridden by Config.Workers).
	SOI soifft.Config
	// MaxN bounds accepted transform lengths. Default 1 << 24.
	MaxN int
	// MaxCount bounds transforms per batch frame. Default 4096.
	MaxCount int
	// IOTimeout bounds each response-frame write and each in-frame payload
	// read: a peer that stops reading (TCP backpressure wedges the writer)
	// or stalls mid-payload is disconnected instead of wedging the
	// connection's goroutines. Between frames a connection may idle
	// indefinitely. Default one minute.
	IOTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 256
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 32
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.PlanCacheSize == 0 {
		c.PlanCacheSize = 32
	}
	if c.MaxN <= 0 {
		c.MaxN = 1 << 24
	}
	if c.MaxCount <= 0 {
		c.MaxCount = 4096
	}
	if c.IOTimeout == 0 {
		c.IOTimeout = time.Minute
	}
	return c
}

// Server is the soifftd engine. Create with New, feed listeners to Serve,
// stop with Shutdown.
type Server struct {
	cfg        Config
	sched      *scheduler
	soiPlans   *PlanCache
	exactPlans *lru[int, *fft.Plan]
	bufs       bufPool
	breakdown  *trace.Breakdown
	stats      serverStats
	// maxResync is the largest rejected-frame payload worth discarding to
	// stay in sync: the byte size of the biggest frame cfg's own limits
	// would accept. Anything larger gets an error frame and a hangup.
	maxResync uint64

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
	draining  bool
	connWG    sync.WaitGroup
}

// New builds a Server and starts its executor pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		soiPlans:   NewPlanCache(cfg.PlanCacheSize),
		exactPlans: newExactCache(exactCacheSize),
		breakdown:  trace.NewBreakdown(),
		listeners:  make(map[net.Listener]struct{}),
		conns:      make(map[*conn]struct{}),
	}
	s.maxResync = maxResyncBytes(cfg.MaxN, cfg.MaxCount)
	s.sched = newScheduler(cfg.Workers, cfg.MaxInFlight, cfg.MaxBatch, s.execute)
	return s
}

// maxResyncBytes is the payload size of the largest frame the configured
// limits admit — under any codec, since a compressed payload's declared
// bound (codec.MaxEncodedLen) slightly exceeds the raw byte size — and
// saturates on misconfigured (absurdly large) limits.
func maxResyncBytes(maxN, maxCount int) uint64 {
	n, c := uint64(maxN), uint64(maxCount)
	if n > math.MaxUint64/c {
		return math.MaxUint64
	}
	elems := n * c
	if elems > uint64(math.MaxInt) {
		return math.MaxUint64
	}
	return codec.MaxEncodedLen(int(elems))
}

// Breakdown exposes the server's phase accounting (queue wait / plan /
// execute / serialize).
func (s *Server) Breakdown() *trace.Breakdown { return s.breakdown }

// Serve accepts connections on ln until Shutdown or a fatal accept error.
// It returns nil when the listener closes due to Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return wire.ErrShuttingDown
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
		ln.Close()
	}()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		cn := &conn{srv: s, c: c, out: make(chan outFrame, 64)}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[cn] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		s.stats.connsTotal.Add(1)
		go cn.handle()
	}
}

// Shutdown gracefully drains the server: listeners close, new requests are
// refused with wire.ErrShuttingDown, in-flight requests complete and their
// responses are flushed. If ctx expires first, remaining connections are
// force-closed and queued requests fail with wire.ErrShuttingDown; the
// context error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	for ln := range s.listeners {
		ln.Close()
	}
	s.sched.refuse()
	// Poke readers blocked between frames so they observe the drain; a
	// reader mid-payload fails its read and drops that half-received
	// request (the client sees the connection close).
	for cn := range s.conns {
		cn.c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for cn := range s.conns {
			cn.c.Close()
		}
		s.mu.Unlock()
	}
	s.sched.stop()
	<-done
	return err
}

// Close force-stops the server without waiting for in-flight work.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

func (s *Server) removeConn(cn *conn) {
	s.mu.Lock()
	delete(s.conns, cn)
	s.mu.Unlock()
}

// resolveAlg maps the wire algorithm selector to an executable kind.
func (s *Server) resolveAlg(a wire.Alg, n int) (algKind, error) {
	switch a {
	case wire.AlgAuto, wire.AlgExact:
		// On one node the exact plan is both faster and exact at every
		// size measured, so SOI is served only to requests that name it.
		return algExact, nil
	case wire.AlgSOI:
		if ok, next := soifft.ValidLength(n, s.cfg.SOI); !ok {
			return 0, fmt.Errorf("%w: n=%d is not SOI-valid for the server's config (next valid %d)",
				wire.ErrBadRequest, n, next)
		}
		return algSOI, nil
	}
	return 0, fmt.Errorf("%w: unknown algorithm %d", wire.ErrBadRequest, a)
}

// execute runs one coalesced batch (total transforms across batch requests,
// all sharing a batchKey). Called from scheduler workers.
func (s *Server) execute(batch []*request, total int) {
	bd := s.breakdown
	now := time.Now()
	live := batch[:0]
	for _, r := range batch {
		bd.Add(trace.PhaseQueueWait, now.Sub(r.enqueued))
		if !r.deadline.IsZero() && now.After(r.deadline) {
			s.stats.shedDeadline.Add(int64(r.count))
			total -= r.count
			s.sched.finish(r, wire.ErrDeadlineExceeded)
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	key := live[0].key
	s.stats.batches.Add(1)
	s.stats.batchedTransforms.Add(int64(total))
	for {
		cur := s.stats.maxBatch.Load()
		if int64(total) <= cur || s.stats.maxBatch.CompareAndSwap(cur, int64(total)) {
			break
		}
	}

	var err error
	if key.alg == algSOI {
		err = s.executeSOI(key, live)
	} else {
		err = s.executeExact(key, live)
	}
	for _, r := range live {
		if err != nil {
			s.sched.finish(r, err)
		} else {
			s.stats.completed.Add(int64(r.count))
			s.sched.finish(r, nil)
		}
	}
}

// executeExact runs every transform of a batch through the one cached
// fft.Plan for its length, reading each request's src and writing its dst
// in place: the plan already runs its radix kernels at unit stride, so
// there is nothing to gain from staging the batch in another layout.
func (s *Server) executeExact(key batchKey, live []*request) error {
	planTimer := s.breakdown.Timer(trace.PhasePlan)
	plan, err := s.exactPlans.Get(key.n)
	planTimer()
	if err != nil {
		return fmt.Errorf("%w: %v", wire.ErrBadRequest, err)
	}

	defer s.breakdown.Timer(trace.PhaseExecute)()
	for _, r := range live {
		for c := 0; c < r.count; c++ {
			plan.Transform(r.dst[c*key.n:(c+1)*key.n], r.src[c*key.n:(c+1)*key.n], key.dir)
		}
	}
	return nil
}

// executeSOI runs a batch through a cached SOI plan. The batch amortizes
// the plan-cache lookup; each transform is one plan call (the SOI plan
// parallelizes internally via its Workers option).
func (s *Server) executeSOI(key batchKey, live []*request) error {
	planTimer := s.breakdown.Timer(trace.PhasePlan)
	cfg := s.cfg.SOI
	cfg.Workers = s.cfg.Workers
	plan, err := s.soiPlans.Get(key.n, cfg)
	planTimer()
	if err != nil {
		return fmt.Errorf("%w: %v", wire.ErrBadRequest, err)
	}
	// SOI results carry a designed error bound; the wire must not dominate
	// it. Clamp each response's lossy codec to a 1/codec.BudgetShare share
	// of the plan's budget (the Quant stream is self-describing, so the
	// client decodes whatever fidelity the server actually used).
	for _, r := range live {
		r.codec = codec.Clamp(r.codec, plan.EstimatedError())
	}
	defer s.breakdown.Timer(trace.PhaseExecute)()
	for _, r := range live {
		for c := 0; c < r.count; c++ {
			dst, src := r.dst[c*key.n:(c+1)*key.n], r.src[c*key.n:(c+1)*key.n]
			if key.dir == fft.Forward {
				err = plan.Forward(dst, src)
			} else {
				err = plan.Inverse(dst, src)
			}
			if err != nil {
				return fmt.Errorf("%w: %v", wire.ErrInternal, err)
			}
		}
	}
	return nil
}

// outFrame is one response awaiting serialization on a connection.
type outFrame struct {
	reqID uint64
	ver   byte // request protocol version, echoed so a v1 peer can read it
	count int
	data  []complex128 // result payload (returned to the pool after writing)
	codec codec.Codec  // result payload codec (nil = identity)
	err   error        // non-nil: error frame
	stats string       // non-empty: stats frame
}

// conn is one accepted connection: a reader goroutine that decodes and
// admits requests, and a writer goroutine that serializes completions,
// flushing once per burst.
type conn struct {
	srv *Server
	c   net.Conn
	br  *bufio.Reader
	// out is closed by the reader alone, after pending.Wait guarantees no
	// more completions; the writer's range then terminates.
	out     chan outFrame
	pending sync.WaitGroup // admitted requests not yet handed to the writer
}

// SetReadDeadline arms the connection's read deadline, preserving
// Shutdown's drain poke: once the server is draining the deadline pins to
// "now" regardless of what the reader re-arms — otherwise a payload-read
// re-arm racing Shutdown could erase the poke and park the connection past
// the drain.
func (cn *conn) SetReadDeadline(t time.Time) {
	s := cn.srv
	s.mu.Lock()
	if s.draining {
		t = time.Now()
	}
	cn.c.SetReadDeadline(t)
	s.mu.Unlock()
}

func (cn *conn) handle() {
	defer cn.srv.connWG.Done()
	defer cn.srv.removeConn(cn)
	defer cn.c.Close()

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		cn.writeLoop()
	}()

	cn.br = bufio.NewReaderSize(cn.c, 64<<10)
	for {
		h, err := wire.ReadHeader(cn.br)
		if err != nil {
			// Clean close, peer error, or the drain poke — either way the
			// reader stops; drain semantics only require completing what
			// was already admitted.
			break
		}
		if !cn.dispatch(&h) {
			break
		}
		// The frame is fully consumed: back to the unbounded idle park
		// (pinned to "now" instead if a drain began mid-frame).
		cn.SetReadDeadline(time.Time{})
	}
	// Let every admitted request reach the writer, then let the writer
	// drain and flush before the connection closes.
	cn.pending.Wait()
	close(cn.out)
	<-writerDone
}

// dispatch handles one decoded frame; false stops the reader (protocol
// error or unrecoverable read failure).
func (cn *conn) dispatch(h *wire.Header) bool {
	s := cn.srv
	switch h.Type {
	case wire.TStats:
		s.stats.statsReqs.Add(1)
		cn.out <- outFrame{reqID: h.ReqID, ver: h.Version, stats: s.MetricsText()}
		return true
	case wire.TForward, wire.TInverse, wire.TBatch:
		return cn.admit(h)
	default:
		// Clients must not send response-typed (or unknown) frames; answer
		// and hang up.
		cn.out <- outFrame{reqID: h.ReqID, ver: h.Version, err: fmt.Errorf("%w: unexpected frame type %v", wire.ErrBadRequest, h.Type)}
		return false
	}
}

// admit validates, reads and submits one transform request. false only for
// connection-fatal failures (the stream can no longer be trusted).
func (cn *conn) admit(h *wire.Header) bool {
	s := cn.srv
	// All geometry checks run on the raw uint64/uint32 header fields: a
	// hostile N at or above 2^63 must be rejected before int(h.N) can go
	// negative and slide under the signed MaxN comparison, and the
	// payload-consistency product is overflow-checked inside CheckedSize.
	elems, err := wire.CheckedSize(h.N, h.Count)
	if err != nil {
		return cn.rejectUnread(h, err)
	}
	if err := wire.CheckTransformPayload(h); err != nil {
		return cn.rejectUnread(h, err)
	}
	if h.N > uint64(s.cfg.MaxN) {
		return cn.rejectUnread(h, fmt.Errorf("%w: n=%d exceeds server limit %d", wire.ErrBadRequest, h.N, s.cfg.MaxN))
	}
	if uint64(h.Count) > uint64(s.cfg.MaxCount) {
		return cn.rejectUnread(h, fmt.Errorf("%w: count=%d exceeds server limit %d", wire.ErrBadRequest, h.Count, s.cfg.MaxCount))
	}
	n, count := int(h.N), int(h.Count)
	if h.Type != wire.TBatch && count != 1 {
		return cn.rejectUnread(h, fmt.Errorf("%w: count=%d on a single-transform frame", wire.ErrBadRequest, count))
	}
	// CheckTransformPayload validated the codec ID/parameter pair, so this
	// resolution cannot fail; the codec decodes the request payload and (for
	// SOI, after the budget clamp in executeSOI) encodes the response.
	reqCodec, cerr := codec.For(h.Codec, h.CodecParam)
	if cerr != nil {
		return cn.rejectUnread(h, fmt.Errorf("%w: %v", wire.ErrBadRequest, cerr))
	}
	alg, algErr := s.resolveAlg(h.Alg, n)

	s.stats.accepted.Add(int64(count))
	// The header promises PayloadLen bytes: bound the payload read so a
	// client that stalls mid-frame cannot hold the reader goroutine.
	cn.SetReadDeadline(time.Now().Add(s.cfg.IOTimeout))
	src := s.bufs.get(elems)
	if h.Codec == codec.Identity {
		if err := wire.ReadVector(cn.br, src); err != nil {
			s.bufs.put(src)
			return false
		}
	} else if err := codec.ReadVector(cn.br, reqCodec, src, h.PayloadLen); err != nil {
		// A corrupt compressed payload draws a typed error frame, but the
		// stream position within the declared payload is unknowable, so the
		// connection cannot be resynced — answer and hang up.
		s.bufs.put(src)
		if errors.Is(err, codec.ErrCorrupt) {
			s.stats.badRequest.Add(int64(count))
			cn.out <- outFrame{reqID: h.ReqID, ver: h.Version, err: fmt.Errorf("%w: %v", wire.ErrBadRequest, err)}
		}
		return false
	}
	if algErr != nil {
		s.stats.badRequest.Add(int64(count))
		cn.out <- outFrame{reqID: h.ReqID, ver: h.Version, err: algErr}
		s.bufs.put(src)
		return true
	}

	dir := fft.Forward
	if h.Inverse() {
		dir = fft.Inverse
	}
	var deadline time.Time
	if h.Deadline != 0 {
		deadline = time.Unix(0, h.Deadline)
	}
	req := &request{
		key:      batchKey{n: n, dir: dir, alg: alg},
		id:       h.ReqID,
		count:    count,
		src:      src,
		dst:      s.bufs.get(elems),
		deadline: deadline,
		ver:      h.Version,
		codec:    reqCodec,
		done:     cn.completeRequest,
	}
	cn.pending.Add(1)
	if err := s.sched.Submit(req); err != nil {
		if errors.Is(err, wire.ErrOverloaded) {
			s.stats.shedOverload.Add(int64(count))
		}
		s.bufs.put(req.src)
		s.bufs.put(req.dst)
		cn.out <- outFrame{reqID: h.ReqID, ver: h.Version, err: err}
		cn.pending.Done()
	}
	return true
}

// rejectUnread responds with an error frame for a request whose payload has
// not been consumed yet, discarding the payload to keep the stream in sync.
// Resync is only attempted for payloads no larger than the biggest frame
// the server's own limits would ever accept: a rejected header claiming
// more than that is answered and hung up on, so a hostile PayloadLen near
// MaxUint64 cannot tie the reader up in a tera-byte discard.
func (cn *conn) rejectUnread(h *wire.Header, err error) bool {
	s := cn.srv
	s.stats.badRequest.Add(1)
	if h.PayloadLen > s.maxResync {
		cn.out <- outFrame{reqID: h.ReqID, ver: h.Version, err: err}
		return false
	}
	cn.SetReadDeadline(time.Now().Add(s.cfg.IOTimeout))
	if derr := wire.DiscardPayload(cn.br, h.PayloadLen); derr != nil {
		return false
	}
	cn.out <- outFrame{reqID: h.ReqID, ver: h.Version, err: err}
	return true
}

// completeRequest is the request.done callback: hand the result (or error)
// to the writer. Runs on executor workers; the bounded out channel applies
// natural backpressure.
func (cn *conn) completeRequest(r *request, err error) {
	cn.srv.bufs.put(r.src)
	if err != nil {
		cn.srv.bufs.put(r.dst)
		cn.out <- outFrame{reqID: r.id, ver: r.ver, err: err}
	} else {
		cn.out <- outFrame{reqID: r.id, ver: r.ver, count: r.count, data: r.dst, codec: r.codec}
	}
	cn.pending.Done()
}

// writeLoop serializes completions. The flush discipline is flush-on-idle:
// a burst of completions (one executed batch) is written back-to-back and
// flushed once, so batching amortizes response syscalls as well as the
// plan lookup.
func (cn *conn) writeLoop() {
	bw := wire.NewWriter(cn.c, 256<<10)
	dead := false
	for f := range cn.out {
		if !dead {
			timer := cn.srv.breakdown.Timer(trace.PhaseSerialize)
			// Bound the write: a peer that stops reading backpressures the
			// TCP window shut, which would otherwise wedge this goroutine
			// (and, through the full out channel, the executors).
			err := cn.c.SetWriteDeadline(time.Now().Add(cn.srv.cfg.IOTimeout))
			if err == nil {
				switch {
				case f.stats != "":
					err = wire.WriteStatsResultVersion(bw, f.ver, f.reqID, f.stats)
				case f.err != nil:
					err = wire.WriteErrorVersion(bw, f.ver, f.reqID, f.err)
				default:
					var encoded bool
					encoded, err = wire.WriteResultCodec(bw, f.ver, f.reqID, f.count, f.data, f.codec)
					cn.srv.stats.countResponse(f.codec, encoded)
				}
			}
			if err == nil && len(cn.out) == 0 {
				err = bw.Flush()
			}
			timer()
			if err != nil {
				// Peer gone: keep draining frames so completions never
				// block, but stop writing.
				dead = true
			}
		}
		if f.data != nil {
			cn.srv.bufs.put(f.data)
		}
	}
	if dead {
		return
	}
	err := cn.c.SetWriteDeadline(time.Now().Add(cn.srv.cfg.IOTimeout))
	if err != nil {
		return
	}
	bw.Flush()
}
