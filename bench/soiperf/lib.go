package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"soifft"
)

// runLib is lib_soi_458k: soifft.NewPlan + Plan.Forward in this process, one
// caller, closed loop. Only conv, fft, cvec and soi run; mpi, wire and serve
// do nothing.
func runLib(cfg *runConfig) (*result, error) {
	p := soiParams(cfg.Smoke)
	libCfg := soifft.Config{
		Segments:      p.Segments,
		OversampleNum: p.NMu, OversampleDen: p.DMu,
		ConvWidth: p.B,
		Workers:   runtime.GOMAXPROCS(0),
	}
	in, err := noiseInputs(cfg.Seed, 4, p.N)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]float64{}}
	if cfg.Trace {
		// The traced pass of this workload is the ladder's span-instrumented
		// pipeline (designed, run and verified there), for the traced window.
		tr := newTracer()
		overhead, err := ladder(cfg, res.Metrics, tr, cfg.window()/2)
		if err != nil {
			return nil, err
		}
		res.Metrics["trace.overhead_frac"] = overhead
		res.Attempted = 1
		return res, tr.writeFile(traceFile(cfg), cfg.Workload)
	}
	dst := make([]complex128, p.N)

	// Set-up: design the window, build the plan, produce one verified result.
	var plan *soifft.Plan
	var chk *checker
	var setup []float64
	for i := 0; i < cfg.setups(3); i++ {
		t0 := time.Now()
		plan, err = soifft.NewPlan(p.N, libCfg)
		if err != nil {
			return nil, fmt.Errorf("soifft.NewPlan: %w", err)
		}
		x, want := in.pick(0)
		if err := plan.Forward(dst, x); err != nil {
			return nil, fmt.Errorf("first Forward: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		chk = newChecker(plan.EstimatedError(), false)
		if !chk.check(dst, want) {
			return nil, fmt.Errorf("first result is wrong: rel err %g > %g", chk.maxErr, chk.tol)
		}
	}
	chk.corrupt = cfg.Corrupt

	for start := time.Now(); time.Since(start) < cfg.warmup(); {
		x, _ := in.pick(0)
		if err := plan.Forward(dst, x); err != nil {
			return nil, err
		}
	}

	closedLoop(cfg, res, chk, in, dst, func(_ int, x []complex128) (time.Duration, error) {
		t0 := time.Now()
		err := plan.Forward(dst, x)
		return time.Since(t0), err
	})
	res.finishEndToEnd(setup, chk)
	return res, nil
}

func traceFile(cfg *runConfig) string {
	return filepath.Join(cfg.TraceDir, "trace-"+cfg.Workload+".json")
}
