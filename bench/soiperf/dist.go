package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"soifft/internal/dist"
	"soifft/internal/mpi"
	"soifft/internal/trace"
	"soifft/internal/window"
)

// distOpTimeout bounds every mesh operation, so that a rank that fails
// cannot leave its peers (and the benchmark) waiting for ever.
const distOpTimeout = 20 * time.Second

// mesh is the distributed system under test: ranks in one process, joined
// by a loopback TCP mesh, each with its own dist.SOI plan and one worker.
type mesh struct {
	p      window.Params
	nodes  []*mpi.TCPNode
	plans  []*dist.SOI
	localN int
	out    []complex128 // rank r writes out[r*localN:(r+1)*localN]

	connectS, designS float64 // slowest rank's share of set-up
}

// distRanks is two: the smallest mesh with real messages. The ranks
// time-share the one processor the benchmark runs on (see pinToOneProcessor),
// so an operation's time is the ranks' work plus the cost of their exchanges,
// not a parallel speed-up; the benchmark reports no scaling figure.
const distRanks = 2

// each runs fn once per rank, concurrently, and waits for all of them.
func (m *mesh) each(fn func(r int) error) error {
	errs := make([]error, len(m.nodes))
	var wg sync.WaitGroup
	for r := range m.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = fn(r)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// newMesh forms the mesh, designs every rank's plan (each rank runs its own
// window design, as separate processes would) and runs one transform of x.
func newMesh(p window.Params, ranks int, x []complex128) (*mesh, error) {
	m := &mesh{
		p: p, nodes: make([]*mpi.TCPNode, ranks), plans: make([]*dist.SOI, ranks),
		localN: p.N / ranks, out: make([]complex128, p.N),
	}
	lns := make([]net.Listener, ranks)
	addrs := make([]string, ranks)
	for r := range lns {
		ln, err := mpi.ListenTCP("127.0.0.1:0")
		if err != nil {
			for _, open := range lns[:r] {
				open.Close()
			}
			return nil, fmt.Errorf("rank %d listen: %w", r, err)
		}
		lns[r], addrs[r] = ln, ln.Addr().String()
	}
	connect := make([]float64, ranks)
	design := make([]float64, ranks)
	err := m.each(func(r int) error {
		t0 := time.Now()
		node, err := mpi.ConnectTCPOpts(r, ranks, lns[r], addrs, mpi.TCPOptions{OpTimeout: distOpTimeout})
		if err != nil {
			lns[r].Close()
			return fmt.Errorf("rank %d connect: %w", r, err)
		}
		m.nodes[r] = node
		connect[r] = time.Since(t0).Seconds()
		t0 = time.Now()
		plan, err := dist.NewSOI(node, p, soiOptions(1))
		if err != nil {
			return fmt.Errorf("rank %d NewSOI: %w", r, err)
		}
		m.plans[r] = plan
		design[r] = time.Since(t0).Seconds()
		return plan.Forward(m.block(m.out, r), m.block(x, r))
	})
	m.connectS, m.designS = maxOf(connect), maxOf(design)
	if err != nil {
		return nil, errors.Join(err, m.close())
	}
	return m, nil
}

func (m *mesh) block(v []complex128, r int) []complex128 {
	return v[r*m.localN : (r+1)*m.localN]
}

func (m *mesh) close() error {
	var errs []error
	for _, n := range m.nodes {
		if n != nil {
			errs = append(errs, n.Close())
		}
	}
	return errors.Join(errs...)
}

// forward is one operation: every rank leaves a barrier, then transforms its
// block of x into m.out. It returns the time on the slowest rank and the
// skew between the first and the last rank to finish.
func (m *mesh) forward(x []complex128, tr *tracer, op int) (took, skew time.Duration, err error) {
	starts := make([]time.Time, len(m.nodes))
	ends := make([]time.Time, len(m.nodes))
	root := tr.begin("dist.op", -1, op)
	err = m.each(func(r int) error {
		if err := mpi.Barrier(m.nodes[r]); err != nil {
			return err
		}
		starts[r] = time.Now()
		err := m.plans[r].Forward(m.block(m.out, r), m.block(x, r))
		ends[r] = time.Now()
		return err
	})
	tr.end(root)
	if err != nil {
		return 0, 0, err
	}
	first, last := ends[0], ends[0]
	for r := range ends {
		tr.add("dist.rank_forward", starts[r], ends[r], root, op)
		took = max(took, ends[r].Sub(starts[r]))
		if ends[r].Before(first) {
			first = ends[r]
		}
		if ends[r].After(last) {
			last = ends[r]
		}
	}
	return took, last.Sub(first), nil
}

// runDist is dist_tcp_458k: the lib workload's arithmetic through dist.SOI
// on a TCP mesh, so the difference from lib_soi_458k is the price of
// distribution.
func runDist(cfg *runConfig) (*result, error) {
	p := soiParams(cfg.Smoke)
	ranks := distRanks
	in, err := noiseInputs(cfg.Seed, 4, p.N)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]float64{}}
	res.notef("ranks=%d workers/rank=1 segments/rank=%d", ranks, p.Segments/ranks)

	// Set-up: listen, connect the mesh, design per rank, one verified result.
	var m *mesh
	var chk *checker
	var setup []float64
	for i := 0; i < cfg.setups(3); i++ {
		if m != nil {
			if err := m.close(); err != nil {
				return nil, fmt.Errorf("closing the mesh: %w", err)
			}
		}
		x, want := in.pick(0)
		t0 := time.Now()
		if m, err = newMesh(p, ranks, x); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		chk = newChecker(m.plans[0].EstimatedError(), false)
		if !chk.check(m.out, want) {
			return nil, errors.Join(fmt.Errorf("first result is wrong: rel err %g > %g", chk.maxErr, chk.tol), m.close())
		}
	}
	chk.corrupt = cfg.Corrupt
	if err := distMeasure(cfg, res, m, in, chk); err != nil {
		return nil, errors.Join(err, m.close())
	}
	if err := m.close(); err != nil {
		return nil, fmt.Errorf("closing the mesh: %w", err)
	}
	if !cfg.Trace {
		res.finishEndToEnd(setup, chk)
	}
	return res, nil
}

// distMeasure warms the mesh up and runs the pass the configuration asks for.
func distMeasure(cfg *runConfig, res *result, m *mesh, in *inputs, chk *checker) error {
	for start := time.Now(); time.Since(start) < cfg.warmup(); {
		if _, _, err := m.forward(in.x[0], nil, 0); err != nil {
			return err
		}
	}
	if cfg.Trace {
		return distTraced(cfg, res, m, in)
	}

	closedLoop(cfg, res, chk, in, m.out, func(i int, x []complex128) (time.Duration, error) {
		took, _, err := m.forward(x, nil, i)
		return took, err
	})
	return nil
}

// distTraced is the traced pass: operations alternate between untraced
// (Breakdown nil) and traced (per-rank Breakdown, spans), so that host drift
// reaches both alike; then the mesh's own collectives are priced, then the
// kernel ladder.
func distTraced(cfg *runConfig, res *result, m *mesh, in *inputs) error {
	tr := newTracer()
	ranks := len(m.nodes)
	breakdowns := make([]*trace.Breakdown, ranks)
	for r := range breakdowns {
		breakdowns[r] = trace.NewBreakdown()
	}
	var plain, traced, skews []float64
	for i, start := 0, time.Now(); time.Since(start) < cfg.window()*3/4; i++ {
		x, _ := in.pick(i)
		on := i%2 == 1
		for r, pl := range m.plans {
			pl.Breakdown = nil
			if on {
				pl.Breakdown = breakdowns[r]
			}
		}
		var t *tracer
		if on {
			t = tr
		}
		took, skew, err := m.forward(x, t, i)
		if err != nil {
			return err
		}
		if on {
			traced = append(traced, msOf(took))
			skews = append(skews, msOf(skew))
		} else {
			plain = append(plain, msOf(took))
		}
	}
	for _, pl := range m.plans {
		pl.Breakdown = nil
	}
	_, want := in.pick(len(plain) + len(traced) - 1)
	if e := newChecker(m.plans[0].EstimatedError(), false); !e.check(m.out, want) {
		res.Failed++
	}
	res.Attempted = len(plain) + len(traced)
	if len(traced) == 0 {
		return errors.New("traced window too short for one traced operation")
	}

	mm := res.Metrics
	perOp := func(phase string) float64 {
		worst := 0.0
		for _, b := range breakdowns {
			worst = max(worst, msOf(b.Get(phase))/float64(len(traced)))
		}
		return worst
	}
	mm["dist.conv_ms"] = perOp(trace.PhaseConv)
	mm["dist.local_fft_ms"] = perOp(trace.PhaseLocalFFT)
	mm["dist.exposed_mpi_ms"] = perOp(trace.PhaseExposedMPI)
	mm["dist.etc_ms"] = perOp(trace.PhaseEtc)
	mm["dist.rank_skew_ms"] = median(skews)
	mm["dist.design_s"] = m.designS
	mm["mpi.connect_s"] = m.connectS
	mm["trace.overhead_frac"] = (median(traced) - median(plain)) / median(plain)
	res.notef("untraced p50 %.4g ms over %d ops, traced p50 %.4g ms over %d ops", median(plain), len(plain), median(traced), len(traced))

	if err := m.priceCollectives(cfg, mm); err != nil {
		return err
	}
	if _, err := ladder(cfg, mm, tr, 0); err != nil {
		return err
	}
	return tr.writeFile(traceFile(cfg), cfg.Workload)
}

// frameHeader is the TCP transport's per-message header (src, tag, count).
const frameHeader = 12

// priceCollectives times the mesh's own operations at the sizes one
// transform uses, and counts (from the sizes, exactly) what one transform
// sends.
func (m *mesh) priceCollectives(cfg *runConfig, mm map[string]float64) error {
	ranks := len(m.nodes)
	rows := m.p.MPrime() / ranks // elements per all-to-all block
	ghost := m.p.GhostElems()
	segPerRank := m.p.Segments / ranks
	reps, small := 30, 300
	if cfg.Smoke {
		reps, small = 5, 30
	}

	block := make([]complex128, rows)
	var a2a []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		err := m.each(func(r int) error {
			send := make([][]complex128, ranks)
			for q := range send {
				send[q] = block
			}
			_, err := mpi.AllToAll(m.nodes[r], send)
			return err
		})
		if err != nil {
			return fmt.Errorf("all-to-all: %w", err)
		}
		a2a = append(a2a, msOf(time.Since(t0)))
	}
	a2aMS := median(a2a)
	mm["mpi.alltoall_ms"] = a2aMS
	mm["mpi.alltoall_mbps"] = float64(ranks*(ranks-1)*rows*16) / 1e6 / (a2aMS / 1e3)

	const tagPing = 7
	piece := make([]complex128, min(ghost, m.localN))
	var sr []float64
	for i := 0; i < small; i++ {
		t0 := time.Now()
		err := m.each(func(r int) error {
			_, err := mpi.SendRecv(m.nodes[r], (r+ranks-1)%ranks, piece, (r+1)%ranks, tagPing)
			return err
		})
		if err != nil {
			return fmt.Errorf("sendrecv: %w", err)
		}
		sr = append(sr, msOf(time.Since(t0))*1e3)
	}
	mm["mpi.sendrecv_us"] = median(sr)

	// Per transform, over all ranks: the ghost pieces, then one all-to-all
	// per local segment with ranks-1 off-rank blocks each.
	ghostMsgs := (ghost + m.localN - 1) / m.localN
	msgs := ranks * (ghostMsgs + segPerRank*(ranks-1))
	elems := ranks * (ghost + segPerRank*(ranks-1)*rows)
	mm["mpi.msgs_per_op"] = float64(msgs)
	mm["mpi.bytes_per_op"] = float64(elems*16 + msgs*frameHeader)
	return nil
}
