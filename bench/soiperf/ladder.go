package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"soifft/internal/codec"
	"soifft/internal/conv"
	"soifft/internal/cvec"
	"soifft/internal/fft"
	"soifft/internal/perfmodel"
	"soifft/internal/soi"
	"soifft/internal/window"
	"soifft/internal/wire"
)

// soiParams are the SOI parameters of the lib and dist workloads and of the
// ladder: N = 7*2^16 (the Fig-11 size), S = 8, mu = 8/7, B = 72. Smoke runs
// use N = 7*2^12 with the same shape.
func soiParams(smoke bool) window.Params {
	n := 7 << 16
	if smoke {
		n = 7 << 12
	}
	return window.Params{N: n, Segments: 8, NMu: 8, DMu: 7, B: 72}
}

// soiOptions are the library's production strategies (what soifft.NewPlan
// selects for the zero Optimizations value).
func soiOptions(workers int) soi.Options {
	return soi.Options{Workers: workers, ConvVariant: conv.Buffered, FFTVariant: fft.SixStepOpt}
}

// fftFlops is the nominal 5 n log2 n operation count of an n-point FFT.
func fftFlops(n int) float64 { return 5 * float64(n) * math.Log2(float64(n)) }

// Serving sizes the ladder prices kernels and wire I/O at.
const (
	serveSmallN = 1024
	serveLargeN = 28672
)

// ladder measures the kernel layers bottom-up in the calling process and
// stores their metrics in m. Every traced run climbs it, so that a shift in
// an end-to-end number can be laid beside the layer speeds of the same
// process on the same host. stagedFor is how long the span-instrumented SOI
// pipeline runs (0 picks a few repetitions): the lib workload passes its
// traced window, because that pipeline is its traced pass, and uses the
// returned overhead: the staged pipeline's median time over Plan.Forward's,
// minus one.
func ladder(cfg *runConfig, m map[string]float64, tr *tracer, stagedFor time.Duration) (float64, error) {
	p := soiParams(cfg.Smoke)
	workers := runtime.GOMAXPROCS(0)
	big, small := 15, 200
	if cfg.Smoke {
		big, small = 3, 20
	}
	n, np, mp := p.N, p.MPrime()*p.Segments, p.MPrime()

	// host: arrays the size of the oversampled vector N' (as float64s).
	copyGBps, triadGBps := hostBandwidth(2*np, workers, big)
	m["host.copy_gbps"], m["host.triad_gbps"] = copyGBps, triadGBps
	fracTriad := func(bytes, ms float64) float64 { return bytes / (ms / 1e3) / 1e9 / triadGBps }

	// window: the design search, then the plan around it.
	t0 := time.Now()
	win, err := window.Design(p)
	if err != nil {
		return 0, fmt.Errorf("window.Design: %w", err)
	}
	m["window.design_s"] = time.Since(t0).Seconds()
	plan, err := soi.NewPlanFromFilter(win, soiOptions(workers))
	if err != nil {
		return 0, fmt.Errorf("soi plan: %w", err)
	}
	in, err := noiseInputs(cfg.Seed, 1, n)
	if err != nil {
		return 0, err
	}
	x, want := in.pick(0)

	// soi: Plan.Forward untraced, and the same pipeline rebuilt here stage by
	// stage with a span around each call into a layer. The two alternate, so
	// that a drift in host speed during the run (these hosts slow by a fifth
	// for seconds at a time) reaches both alike, and both are warmed first:
	// each call allocates 25 MB, and the first few run while the collector
	// is still growing the heap to fit.
	fp, err := fft.NewBatch(p.Segments, workers)
	if err != nil {
		return 0, err
	}
	dst, staged := make([]complex128, n), make([]complex128, n)
	for i := -3; i < 0; i++ {
		if err := plan.Forward(dst, x); err != nil {
			return 0, fmt.Errorf("soi forward: %w", err)
		}
		stagedForward(nil, i, plan, fp, staged, x, workers)
	}
	var fwd []float64
	var ms0, ms1 runtime.MemStats
	var allocated uint64
	first := len(tr.spans)
	for i, start := 0, time.Now(); i < big || time.Since(start) < stagedFor; i++ {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		err := plan.Forward(dst, x)
		fwd = append(fwd, msOf(time.Since(t0)))
		if err != nil {
			return 0, fmt.Errorf("soi forward: %w", err)
		}
		runtime.ReadMemStats(&ms1)
		allocated += ms1.TotalAlloc - ms0.TotalAlloc
		stagedForward(tr, i, plan, fp, staged, x, workers)
	}
	fwdMS := median(fwd)
	if e := cvec.RelErrL2(staged, dst); e > 1e-13 {
		return 0, fmt.Errorf("staged pipeline differs from Plan.Forward: rel err %g", e)
	}
	if e := cvec.RelErrL2(staged, want); !(e <= plan.EstimatedError()) {
		return 0, fmt.Errorf("staged pipeline: rel err %g above designed bound %g", e, plan.EstimatedError())
	}
	self := selfTimesMS(tr.spans, first)
	spans := tr.spans[first:]
	convMS := median(self["conv.apply"])
	fpMS := median(self["fft.batch_fp"])
	trMS := median(self["cvec.transpose"])
	finishMS := median(sumByOp(spans, "soi.finish"))
	opMS := median(sumByOp(spans, "soi.op"))
	stages := convMS + fpMS + trMS + finishMS

	m["conv.apply_ms"] = convMS
	m["conv.gflops"] = p.ConvFlops() / (convMS / 1e3) / 1e9
	m["conv.frac_triad"] = fracTriad(16*float64(n+p.GhostElems()+np), convMS)
	m["fft.batch_fp_ms"] = fpMS
	m["cvec.transpose_ms"] = trMS
	m["cvec.transpose_gbps"] = 2 * 16 * float64(np) / (trMS / 1e3) / 1e9
	m["soi.forward_ms"] = fwdMS
	m["soi.finish_ms"] = finishMS
	m["soi.residual_ms"] = fwdMS - stages
	m["soi.residual_frac"] = (fwdMS - stages) / fwdMS
	m["soi.alloc_bytes_per_op"] = float64(allocated) / float64(len(fwd))
	m["soi.gflops"] = fftFlops(n) / (fwdMS / 1e3) / 1e9

	// fft: the M'-point six-step alone (4 computed sweeps of 16 B per
	// element), the plain exact plans, and the serving lane kernel.
	six, err := fft.NewSixStep(mp, fft.SixStepOpt, workers)
	if err != nil {
		return 0, fmt.Errorf("six-step M'=%d: %w", mp, err)
	}
	tf, out := x[:mp], make([]complex128, mp)
	sixMS := median(timeReps(big*p.Segments, func() { six.Forward(out, tf) }))
	m["fft.sixstep_ms"] = sixMS
	m["fft.sixstep_gflops"] = fftFlops(mp) / (sixMS / 1e3) / 1e9
	m["fft.sixstep_frac_triad"] = fracTriad(4*16*float64(mp), sixMS)

	exact, err := fft.NewPlan(n)
	if err != nil {
		return 0, err
	}
	exactMS := median(timeReps(big, func() { exact.Forward(dst, x) }))
	m["fft.plan_458k_ms"] = exactMS
	m["soi.over_exact_ratio"] = fwdMS / exactMS

	exact28, err := fft.NewPlan(serveLargeN)
	if err != nil {
		return 0, err
	}
	v28 := smoothVector(cfg.Seed, serveLargeN)
	o28 := make([]complex128, serveLargeN)
	m["fft.plan_28k_ms"] = median(timeReps(small, func() { exact28.Forward(o28, v28) }))

	for _, lanes := range []int{8, 32} {
		lb, err := fft.NewLaneBatch(serveSmallN, lanes)
		if err != nil {
			return 0, err
		}
		buf := make([]complex128, serveSmallN*lanes)
		copy(buf, x)
		ms := median(timeReps(small, func() { lb.Transform(buf, fft.Forward) }))
		m[fmt.Sprintf("fft.lane_1k_x%d_ms", lanes)] = ms
		m[fmt.Sprintf("fft.lane_1k_x%d_gflops", lanes)] = float64(lanes) * fftFlops(serveSmallN) / (ms / 1e3) / 1e9
	}

	// perfmodel: measured conv / local-FFT time over the section-4 ratio for
	// the Xeon platform; 1 means the model's ratio holds on this host.
	model := perfmodel.Default()
	modelRatio := model.TConv(perfmodel.Xeon, float64(n), 1) / model.TFFT(perfmodel.Xeon, float64(n), 1)
	m["perfmodel.conv_fft_ratio_err"] = convMS / (float64(p.Segments) * sixMS) / modelRatio

	if err := wireLadder(m, x, v28, small); err != nil {
		return 0, err
	}
	return (opMS - fwdMS) / fwdMS, codecLadder(m, v28, small)
}

// stagedForward is soi.Plan.Forward rebuilt from the layers' exported
// functions, with a span around each call. What is left in the op span's
// self time is the allocation of u, t and y.
func stagedForward(tr *tracer, op int, plan *soi.Plan, fp *fft.Batch, dst, src []complex128, workers int) {
	win := plan.Win
	p := win.Params
	np, mp, m := p.MPrime()*p.Segments, p.MPrime(), p.M()
	root := tr.begin("soi.op", -1, op)

	id := tr.begin("soi.ghost", root, op)
	ghost := p.GhostElems()
	xx := make([]complex128, p.N+ghost)
	copy(xx, src)
	copy(xx[p.N:], src[:ghost])
	tr.end(id)

	u := make([]complex128, np)
	id = tr.begin("conv.apply", root, op)
	conv.Apply(conv.Buffered, win, u, xx, 0, p.Chunks(), workers)
	tr.end(id)

	id = tr.begin("fft.batch_fp", root, op)
	fp.Transform(u, u, p.Chunks()*p.NMu, p.Segments, fft.Forward)
	tr.end(id)

	t := make([]complex128, np)
	id = tr.begin("cvec.transpose", root, op)
	cvec.Transpose(t, u, mp, p.Segments)
	tr.end(id)

	y := make([]complex128, mp)
	for f := 0; f < p.Segments; f++ {
		id = tr.begin("soi.finish", root, op)
		plan.FinishSegment(dst[f*m:(f+1)*m], t[f*mp:(f+1)*mp], y)
		tr.end(id)
	}
	tr.end(root)
}

// sumByOp returns, per operation, the summed duration in milliseconds of its
// spans called name.
func sumByOp(spans []span, name string) []float64 {
	byOp := map[int]float64{}
	var order []int
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		if _, seen := byOp[s.Op]; !seen {
			order = append(order, s.Op)
		}
		byOp[s.Op] += float64(s.End-s.Start) / 1e6
	}
	out := make([]float64, len(order))
	for i, op := range order {
		out[i] = byOp[op]
	}
	return out
}

// smoothVector is one smooth 8-mode vector (see smoothInputs) without its
// spectrum.
func smoothVector(seed int64, n int) []complex128 {
	in, err := smoothInputs(seed, 1, n)
	if err != nil {
		panic(err) // n is a constant smooth length: a plan always exists
	}
	return in.x[0]
}

// wireLadder prices payload streaming through an in-memory buffer.
func wireLadder(m map[string]float64, noise, smooth []complex128, reps int) error {
	var err error
	for _, c := range []struct {
		label string
		x     []complex128
	}{{"1k", noise[:serveSmallN]}, {"28k", smooth}} {
		var buf bytes.Buffer
		buf.Grow(len(c.x) * wire.BytesPerElem)
		wr := median(timeReps(reps, func() {
			buf.Reset()
			err = wire.WriteVector(&buf, c.x)
		}))
		if err != nil {
			return err
		}
		raw := buf.Bytes()
		back := make([]complex128, len(c.x))
		rd := median(timeReps(reps, func() { err = wire.ReadVector(bytes.NewReader(raw), back) }))
		if err != nil {
			return err
		}
		if cvec.MaxAbsDiff(back, c.x) != 0 {
			return fmt.Errorf("wire round trip of %s payload is not exact", c.label)
		}
		mb := float64(len(raw)) / 1e6
		m["wire.write_"+c.label+"_mbps"] = mb / (wr / 1e3)
		m["wire.read_"+c.label+"_mbps"] = mb / (rd / 1e3)
	}

	h := wire.Header{Version: 1, Type: wire.TForward, ReqID: 7, Count: 1, N: serveSmallN, PayloadLen: serveSmallN * wire.BytesPerElem}
	var buf bytes.Buffer
	const perSample = 64 // one round trip is near the clock's resolution
	rt := median(timeReps(reps, func() {
		for i := 0; i < perSample && err == nil; i++ {
			buf.Reset()
			if err = wire.WriteHeader(&buf, &h); err == nil {
				_, err = wire.ReadHeader(&buf)
			}
		}
	}))
	if err != nil {
		return err
	}
	m["wire.header_rt_ns"] = rt * 1e6 / perSample
	return nil
}

// codecLadder prices deltaplane on the codec workload's own kind of payload.
func codecLadder(m map[string]float64, x []complex128, reps int) error {
	c, err := codec.ByName("deltaplane", 0)
	if err != nil {
		return err
	}
	var enc []byte
	encMS := median(timeReps(reps, func() { enc = codec.AppendVector(enc[:0], c, x) }))
	back := make([]complex128, len(x))
	decMS := median(timeReps(reps, func() { err = codec.DecodeVector(back, c, enc) }))
	if err != nil {
		return err
	}
	if cvec.MaxAbsDiff(back, x) != 0 {
		return fmt.Errorf("deltaplane round trip is not exact")
	}
	raw := float64(len(x) * wire.BytesPerElem)
	m["codec.encode_mbps"] = raw / 1e6 / (encMS / 1e3)
	m["codec.decode_mbps"] = raw / 1e6 / (decMS / 1e3)
	m["codec.ratio"] = raw / float64(len(enc))
	return nil
}
