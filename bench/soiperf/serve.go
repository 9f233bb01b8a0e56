package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"soifft/client"
)

// serveSpec is one serving workload: what is asked of soifftd and how.
type serveSpec struct {
	n       int
	smooth  bool    // smooth 8-mode payloads instead of Gaussian noise
	codec   string  // client.SetCodec name; "" is identity
	conns   int     // connections
	callers int     // closed loop: pipelined callers per connection
	rate    float64 // open loop: requests per second over all connections; 0 = closed loop
	every   int     // check every this-many-th output per caller
}

// inflightCap bounds an open loop's outstanding requests. A request due
// while the cap is reached waits for a slot and is still timed from its due
// instant, so the stall is charged to it in full; dropping it instead would
// turn every host hiccup longer than cap/rate into a failed run.
const inflightCap = 64

// Rates are frozen at a little over 40 % of the closed-loop capacity probed
// on one processor of the reference host, client and server sharing it (570
// and 106 requests/s with cmd/soiload, 2 connections x 2 callers), so that
// the open loops stay unsaturated on a host somewhat slower than it.
const (
	rate28kIdentity = 240
	rate28kCodec    = 45
)

// maxLagMS is how late the open-loop generator may fire at p95 before the
// run is marked invalid. The reference hosts' sleep timers tick at 1 ms (a
// time.Sleep overshoots by 0.6 ms at the median on an idle machine), so the
// limit is two ticks; spinning instead would take a third of one of the two
// processors away from the server.
const maxLagMS = 2.0

// serveConns is fixed rather than tied to the processor count: connections
// are sockets, not busy threads, and the generator is one process.
const serveConns = 2

// runServe1kClosed is serve_1k_closed: cache-resident kernels, so the
// scheduler, coalescing into lane batches and per-frame wire I/O dominate.
func runServe1kClosed(cfg *runConfig) (*result, error) {
	return runServe(cfg, serveSpec{n: serveSmallN, conns: serveConns, callers: 16, every: 64})
}

// runServe28kOpen is serve_28k_open: 459 KB payloads each way at a fixed
// arrival rate, so payload streaming is a large share and batches are ~1.
func runServe28kOpen(cfg *runConfig) (*result, error) {
	return runServe(cfg, serveSpec{n: serveLargeN, smooth: true, conns: serveConns, rate: rate28kIdentity, every: 64})
}

// runServe28kCodecOpen is serve_28k_codec_open: the same requests under the
// deltaplane codec, where encode/decode dominates the same layers.
func runServe28kCodecOpen(cfg *runConfig) (*result, error) {
	return runServe(cfg, serveSpec{n: serveLargeN, smooth: true, codec: "deltaplane", conns: serveConns, rate: rate28kCodec, every: 64})
}

// server is a running soifftd subprocess.
type server struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
}

// startServer starts soifftd with default flags on a free loopback port the
// benchmark picks.
func startServer(bin string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, err
	}
	s := &server{addr: addr}
	s.cmd = exec.Command(bin, "-listen", addr)
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	return s, nil
}

// stop sends SIGTERM and requires a clean drain: exit status 0 and the
// server's own "drained cleanly" line.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("SIGTERM: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("soifftd did not drain cleanly: %w\n%s", err, s.stderr.String())
		}
	case <-time.After(40 * time.Second): // soifftd's own drain bound is 30 s
		s.kill()
		<-done
		return errors.New("soifftd did not exit within 40 s of SIGTERM")
	}
	if !strings.Contains(s.stderr.String(), "drained cleanly") {
		return fmt.Errorf("soifftd exited without reporting a clean drain:\n%s", s.stderr.String())
	}
	return nil
}

// kill is the error-path stop: the process must not outlive the benchmark.
func (s *server) kill() {
	s.cmd.Process.Kill()
}

// serveSession is a started server with its connected clients.
type serveSession struct {
	srv     *server
	clients []*client.Client
}

// open starts the server, waits for it, connects and gets one result.
func openSession(cfg *runConfig, spec serveSpec, x, dst []complex128) (*serveSession, error) {
	srv, err := startServer(cfg.Soifftd)
	if err != nil {
		return nil, err
	}
	ss := &serveSession{srv: srv}
	if err := client.WaitReady(srv.addr, 10*time.Second); err != nil {
		ss.abort()
		return nil, fmt.Errorf("%w\n%s", err, srv.stderr.String())
	}
	for i := 0; i < spec.conns; i++ {
		cl, err := client.Dial(srv.addr)
		if err != nil {
			ss.abort()
			return nil, err
		}
		cl.SetIOTimeout(20 * time.Second)
		ss.clients = append(ss.clients, cl)
		if err := cl.SetCodec(spec.codec, 0); err != nil {
			ss.abort()
			return nil, err
		}
	}
	if err := ss.clients[0].Forward(context.Background(), dst, x); err != nil {
		ss.abort()
		return nil, fmt.Errorf("first request: %w", err)
	}
	return ss, nil
}

func (ss *serveSession) closeClients() {
	for _, cl := range ss.clients {
		cl.Close()
	}
}

func (ss *serveSession) abort() {
	ss.closeClients()
	ss.srv.kill()
	ss.srv.cmd.Wait()
}

// close hangs up and stops the server, which must drain cleanly.
func (ss *serveSession) close() error {
	ss.closeClients()
	return ss.srv.stop()
}

func runServe(cfg *runConfig, spec serveSpec) (*result, error) {
	k := 64
	if spec.n > serveSmallN {
		k = 8
	}
	gen := noiseInputs
	if spec.smooth {
		gen = smoothInputs
	}
	in, err := gen(cfg.Seed, k, spec.n)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]float64{}}
	res.notef("n=%d conns=%d callers/conn=%d rate=%g/s codec=%q inflight cap %d", spec.n, spec.conns, spec.callers, spec.rate, spec.codec, inflightCap)

	// Set-up: exec soifftd, WaitReady, connect, first verified response.
	var ss *serveSession
	var setup []float64
	dst := make([]complex128, spec.n)
	for i := 0; i < cfg.setups(5); i++ {
		if ss != nil {
			if err := ss.close(); err != nil {
				return nil, err
			}
		}
		x, want := in.pick(0)
		t0 := time.Now()
		if ss, err = openSession(cfg, spec, x, dst); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		if c := newChecker(exactTol, false); !c.check(dst, want) {
			ss.abort()
			return nil, fmt.Errorf("first response is wrong: rel err %g", c.maxErr)
		}
	}
	ld := &load{
		cfg: cfg, spec: spec, in: in, clients: ss.clients, pid: ss.srv.cmd.Process.Pid,
		chk: newChecker(exactTol, cfg.Corrupt),
	}
	if cfg.Trace {
		ld.tr = newTracer()
	}
	runErr := ld.run(res)
	if runErr == nil && cfg.Trace {
		rss, err := procPeakRSSMB(ld.pid)
		if err != nil {
			runErr = err
		}
		res.Metrics["serve.rss_mb"] = rss
	}
	if err := ss.close(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return nil, runErr
	}
	if cfg.Trace {
		if _, err := ladder(cfg, res.Metrics, ld.tr, 0); err != nil {
			return nil, err
		}
		return res, ld.tr.writeFile(traceFile(cfg), cfg.Workload)
	}
	res.finishEndToEnd(setup, ld.chk)
	return res, nil
}

// load drives one serving workload's warm-up and measured window.
type load struct {
	cfg     *runConfig
	spec    serveSpec
	in      *inputs
	clients []*client.Client
	pid     int
	chk     *checker
	tr      *tracer // traced pass only

	windowStart time.Time
	measuring   atomic.Bool // requests starting now belong to the window
	stopped     atomic.Bool

	log windowLog // untraced pass: the whole window; traced pass: unused

	mu             sync.Mutex
	attempted      int
	failed         int
	plain, spanned []float64 // traced pass: latencies by whether spans were on
	lags           []float64 // open loop: how late each request was sent (ms)
}

// recordsSpans reports whether request i records spans: every other pair of
// requests of the traced pass (pairs, because an open loop sends odd and even
// requests down different connections), so that the requests with and
// without spans see the same host and the same load, and their difference
// is the cost of the spans.
func (l *load) recordsSpans(i int) bool { return l.cfg.Trace && i/2%2 == 1 }

// done records one finished request. due is when it was scheduled (open
// loop) or sent (closed loop); sent is when the call began.
func (l *load) done(op int, due, sent, end time.Time, err error, check, spans bool, got, want []complex128) {
	ok := err == nil
	if ok && check {
		ok = l.chk.check(got, want)
	}
	ms := msOf(end.Sub(due))
	if spans {
		root := l.tr.add("client.request", due, end, -1, op)
		if sent.After(due) {
			l.tr.add("loadgen.wait", due, sent, root, op)
		}
	}
	l.mu.Lock()
	l.attempted++
	if !ok {
		l.failed++
	}
	if l.spec.rate > 0 {
		l.lags = append(l.lags, msOf(sent.Sub(due)))
	}
	if ok && l.cfg.Trace {
		if spans {
			l.spanned = append(l.spanned, ms)
		} else {
			l.plain = append(l.plain, ms)
		}
	}
	l.mu.Unlock()
	if ok && !l.cfg.Trace {
		// Filed under the sub-window it was due in: filed by completion, the
		// burst that drains a backlog would read as throughput above the
		// offered rate.
		l.log.add(due.Sub(l.windowStart), ms)
	}
}

// run warms up, measures one window and fills res. In the traced pass every
// other request records spans, and the server's own counters are read before
// and after the window.
func (l *load) run(res *result) error {
	window := l.cfg.window()
	if l.cfg.Trace {
		window = window * 3 / 4
	}
	// The context only ends the workers should the dispatcher be lost; a
	// normal finish closes jobs and lets every request in flight complete.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	var jobs chan job
	if l.spec.rate == 0 {
		for c, cl := range l.clients {
			for j := 0; j < l.spec.callers; j++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					l.caller(ctx, cl, c*l.spec.callers+j)
				}()
			}
		}
	} else {
		jobs = make(chan job) // unbuffered: a job is handed to an idle worker or the dispatcher waits for one
		for w := 0; w < inflightCap; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				l.worker(ctx, jobs)
			}()
		}
	}
	// From here on every return path must stop the goroutines above.
	finish := func() {
		l.stopped.Store(true)
		if jobs != nil {
			close(jobs)
		}
		wg.Wait()
	}

	sched := newSchedule(l.spec.rate, time.Now())
	l.pace(sched, jobs, time.Now().Add(l.cfg.warmup()))

	var before map[string]float64
	var err error
	if l.cfg.Trace {
		if before, err = l.clients[0].Stats(ctx); err != nil {
			finish()
			return fmt.Errorf("server stats: %w", err)
		}
	}
	cpuOf := func() time.Duration {
		c, cerr := procCPU(l.pid)
		if cerr != nil && err == nil {
			err = cerr
		}
		return c
	}
	genCPU0 := selfCPU()
	l.windowStart = time.Now()
	l.log.addMark(0, cpuOf())
	l.measuring.Store(true)
	part := window / subWindows
	for k := 1; k <= subWindows; k++ {
		l.pace(sched, jobs, l.windowStart.Add(time.Duration(k)*part))
		l.log.addMark(time.Since(l.windowStart), cpuOf())
	}
	l.measuring.Store(false)
	wall := time.Since(l.windowStart)
	genCPU := selfCPU() - genCPU0
	finish()
	if err != nil {
		return err
	}

	res.Attempted, res.Failed = l.attempted, l.failed
	if !l.cfg.Trace {
		l.log.fill(res)
		return nil
	}
	after, err := l.clients[0].Stats(ctx)
	if err != nil {
		return fmt.Errorf("server stats: %w", err)
	}
	l.layerMetrics(res, before, after, wall, genCPU)
	return nil
}

// layerMetrics fills the serve, client, loadgen and trace groups.
func (l *load) layerMetrics(res *result, before, after map[string]float64, wall, genCPU time.Duration) {
	m := res.Metrics
	delta := func(name string) float64 {
		a, ok := after[name]
		if !ok {
			res.notef("server counter %s is missing; its metric reads 0", name)
		}
		return a - before[name]
	}
	ops := max(delta("soifftd_completed_total"), 1)
	phases := 0.0
	for metric, counter := range map[string]string{
		"serve.queue_wait_ms_per_op": "soifftd_phase_queue_wait_seconds",
		"serve.plan_ms_per_op":       "soifftd_phase_plan_seconds",
		"serve.execute_ms_per_op":    "soifftd_phase_execute_seconds",
		"serve.serialize_ms_per_op":  "soifftd_phase_serialize_seconds",
	} {
		m[metric] = delta(counter) * 1e3 / ops
		phases += m[metric]
	}
	m["serve.mean_batch"] = delta("soifftd_batched_transforms_total") / max(delta("soifftd_batches_total"), 1)
	m["serve.max_batch"] = after["soifftd_max_batch_size"]
	m["serve.shed"] = delta("soifftd_shed_overload_total") + delta("soifftd_shed_deadline_total")

	all := sorted(append(append([]float64(nil), l.plain...), l.spanned...))
	m["client.latency_ms_p95"] = percentile(all, 95)
	m["client.latency_ms_p99"] = percentile(all, 99)
	m["client.unattributed_ms"] = percentile(all, 50) - phases
	if !supported(len(all), 99) {
		res.notef("client.latency_ms_p99 rests on %d samples; 1000 are needed for %d beyond it", len(all), tailSamples)
	}
	m["loadgen.lag_ms_p95"] = percentile(sorted(l.lags), 95)
	m["loadgen.cpu_frac"] = genCPU.Seconds() / (wall.Seconds() * float64(runtime.NumCPU()))
	m["loadgen.sent"] = float64(l.attempted)
	if m["loadgen.lag_ms_p95"] > maxLagMS {
		res.notef("INVALID RUN: the generator fired %.3g ms late at p95 (limit %g ms); its latencies are mostly generator delay", m["loadgen.lag_ms_p95"], maxLagMS)
	}
	if len(l.plain) > 0 && len(l.spanned) > 0 {
		m["trace.overhead_frac"] = (median(l.spanned) - median(l.plain)) / median(l.plain)
	}
	res.Samples = len(all)
}

// caller is one closed-loop request loop: the next request is sent when the
// previous response has arrived.
func (l *load) caller(ctx context.Context, cl *client.Client, id int) {
	dst := make([]complex128, l.spec.n)
	var lastWant []complex128
	lastCounted := false
	for i := 0; !l.stopped.Load(); i++ {
		x, want := l.in.pick(id*7 + i)
		counted := l.measuring.Load()
		t0 := time.Now()
		err := cl.Forward(ctx, dst, x)
		end := time.Now()
		if counted {
			l.done(id<<32|i, t0, t0, end, err, sampled(i, l.spec.every), l.recordsSpans(i), dst, want)
		}
		lastWant, lastCounted = want, counted && err == nil && !sampled(i, l.spec.every)
	}
	if lastCounted && !l.chk.check(dst, lastWant) {
		l.mu.Lock()
		l.failed++
		l.mu.Unlock()
	}
}

// job is one open-loop request: its number, when it was due, and whether
// the measured window owns it.
type job struct {
	i       int
	due     time.Time
	counted bool
}

// worker sends the open loop's requests; inflightCap of them run.
func (l *load) worker(ctx context.Context, jobs <-chan job) {
	dst := make([]complex128, l.spec.n)
	for {
		var j job
		var ok bool
		select {
		case j, ok = <-jobs:
		case <-ctx.Done():
		}
		if !ok {
			return
		}
		x, want := l.in.pick(j.i)
		sent := time.Now()
		err := l.clients[j.i%len(l.clients)].Forward(ctx, dst, x)
		end := time.Now()
		if j.counted {
			l.done(j.i, j.due, sent, end, err, sampled(j.i, l.spec.every), l.recordsSpans(j.i), dst, want)
		}
	}
}

// pace lets the load run until the given instant: a closed loop just runs;
// an open loop's requests are dispatched here, each at its due time.
func (l *load) pace(s *schedule, jobs chan<- job, until time.Time) {
	if s == nil {
		time.Sleep(time.Until(until))
		return
	}
	for {
		i, due := s.peek()
		if due.After(until) {
			time.Sleep(time.Until(until))
			return
		}
		time.Sleep(time.Until(due))
		s.next()
		jobs <- job{i, due, l.measuring.Load()}
	}
}
