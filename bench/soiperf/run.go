package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"time"

	"soifft/internal/cvec"
	"soifft/internal/fft"
)

// runConfig is what one workload run is given.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64 // measured window
	Trace    bool    // traced pass: per-layer metrics instead of end-to-end
	Smoke    bool    // shrunk sizes and repetitions, for the package's own test
	Corrupt  bool    // test hook: corrupt one sampled output before checking it
	Soifftd  string  // path of the built server binary
	TraceDir string  // where the traced pass writes its span file
}

// warmup is the discarded lead-in before the measured window: long enough
// for plan and kernel caches, pools and the Go heap to reach steady state.
func (c *runConfig) warmup() time.Duration {
	w := c.Seconds * 0.15
	return time.Duration(math.Min(math.Max(w, 0.3), 3) * float64(time.Second))
}

func (c *runConfig) window() time.Duration {
	return time.Duration(c.Seconds * float64(time.Second))
}

// setups is how many times set-up is repeated to report its median.
func (c *runConfig) setups(full int) int {
	if c.Smoke || c.Trace {
		return 1
	}
	return full
}

// result is what one workload run reports.
type result struct {
	Attempted int
	Failed    int
	Samples   int // timed operations behind the percentiles
	Metrics   map[string]float64
	Notes     []string
}

func (r *result) notef(format string, a ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, a...))
}

// finishEndToEnd adds the two end-to-end metrics that do not come from the
// window's clocks, and the note that carries rel_err.
func (r *result) finishEndToEnd(setup []float64, chk *checker) {
	r.Metrics["setup_s"] = median(setup)
	r.Metrics["accuracy_digits"] = chk.accuracyDigits()
	r.notef("rel_err max %.3g over %d checked outputs (tolerance %.3g)", chk.maxErr, chk.checked, chk.tol)
}

// Tolerances on the relative L2 error against fft.Plan. SOI paths use the
// plan's own designed bound instead.
const exactTol = 1e-10

// checker compares sampled outputs with the exact FFT and counts the wrong
// ones. Safe for concurrent use.
type checker struct {
	tol float64

	mu      sync.Mutex
	corrupt bool // corrupt the next output checked (once)
	checked int
	maxErr  float64
}

func newChecker(tol float64, corrupt bool) *checker {
	return &checker{tol: tol, corrupt: corrupt}
}

// check reports whether got is within tolerance of want.
func (c *checker) check(got, want []complex128) bool {
	c.mu.Lock()
	if c.corrupt {
		c.corrupt = false
		got[len(got)/2] += complex(cvec.L2Norm(want), 0)
	}
	c.mu.Unlock()
	e := cvec.RelErrL2(got, want)
	ok := e <= c.tol // false for NaN too
	c.mu.Lock()
	c.checked++
	if e > c.maxErr || math.IsNaN(e) {
		c.maxErr = e
	}
	c.mu.Unlock()
	return ok
}

// accuracyDigits is -log10 of the worst relative error seen, capped at
// float64's own precision so that a bit-identical answer reads 15.95, not
// infinity.
func (c *checker) accuracyDigits() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if math.IsNaN(c.maxErr) {
		return 0
	}
	return -math.Log10(math.Max(c.maxErr, 0x1p-53))
}

// sampled reports whether operation i (0-based) of a stream is one the
// checker looks at: the first and every `every`-th. Callers add the last.
func sampled(i, every int) bool { return i%every == 0 }

// inputs is a small pool of seeded input vectors with their exact spectra,
// computed before anything is timed.
type inputs struct {
	x, want [][]complex128
}

func (in *inputs) pick(i int) (x, want []complex128) {
	k := i % len(in.x)
	return in.x[k], in.want[k]
}

// noiseInputs returns k vectors of n complex Gaussian samples.
func noiseInputs(seed int64, k, n int) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	return makeInputs(k, n, func(x []complex128) {
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	})
}

// smoothInputs returns k vectors of n samples, each the sum of eight
// low-frequency complex tones with seeded bins, amplitudes and phases: the
// compressible payload the codec workload needs.
func smoothInputs(seed int64, k, n int) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	return makeInputs(k, n, func(x []complex128) {
		for i := range x {
			x[i] = 0
		}
		for m := 0; m < 8; m++ {
			bin := 1 + rng.Intn(32)
			amp := 0.5 + rng.Float64()
			phase := 2 * math.Pi * rng.Float64()
			w := 2 * math.Pi * float64(bin) / float64(n)
			for i := range x {
				s, c := math.Sincos(w*float64(i) + phase)
				x[i] += complex(amp*c, amp*s)
			}
		}
	})
}

func makeInputs(k, n int, fill func([]complex128)) (*inputs, error) {
	plan, err := fft.NewPlan(n)
	if err != nil {
		return nil, fmt.Errorf("reference plan for n=%d: %w", n, err)
	}
	in := &inputs{}
	for i := 0; i < k; i++ {
		x := make([]complex128, n)
		fill(x)
		want := make([]complex128, n)
		plan.Forward(want, x)
		in.x = append(in.x, x)
		in.want = append(in.want, want)
	}
	return in, nil
}

// subWindows is how many equal parts the measured window is cut into.
const subWindows = 10

// windowLog records the measured window of a workload: every completed
// operation's instant (completion for a one-caller loop, due time for the
// serving loads) and duration, and the clock and CPU readings at the
// sub-window boundaries. Times are offsets from the window's
// start. Safe for concurrent use.
//
// The hosts this runs on are shared: for seconds at a time everything runs
// up to 1.4x slower, then recovers. A figure over the whole window therefore
// says mostly how much of the window the neighbours took. Each timing metric
// is instead computed per sub-window and the best sub-window is reported
// (lowest p50 and CPU per operation, highest throughput): what the code
// does when the host lets it, which is the part a change to the code moves.
// The whole-window figures are printed beside them as a note.
type windowLog struct {
	mu    sync.Mutex
	at    []time.Duration
	ms    []float64
	marks []mark // marks[0] is the window's start
}

// mark is one boundary reading: wall offset and cumulative CPU of the
// system under test.
type mark struct{ wall, cpu time.Duration }

func (w *windowLog) add(at time.Duration, ms float64) {
	w.mu.Lock()
	w.at = append(w.at, at)
	w.ms = append(w.ms, ms)
	w.mu.Unlock()
}

func (w *windowLog) addMark(wall, cpu time.Duration) {
	w.mu.Lock()
	w.marks = append(w.marks, mark{wall, cpu})
	w.mu.Unlock()
}

// fill computes the timing metrics every workload shares.
func (w *windowLog) fill(res *result) {
	w.mu.Lock()
	defer w.mu.Unlock()
	parts := len(w.marks) - 1
	lat := make([][]float64, parts)
	for i, at := range w.at {
		for k := 0; k < parts; k++ {
			if at > w.marks[k].wall && at <= w.marks[k+1].wall {
				lat[k] = append(lat[k], w.ms[i])
				break
			}
		}
	}
	var p50, tps, cpu []float64
	for k, l := range lat {
		if len(l) == 0 {
			continue
		}
		asc := sorted(l)
		span := w.marks[k+1].wall - w.marks[k].wall
		p50 = append(p50, percentile(asc, 50))
		tps = append(tps, float64(len(l))/span.Seconds())
		cpu = append(cpu, msOf(w.marks[k+1].cpu-w.marks[k].cpu)/float64(len(l)))
	}
	res.Samples = len(w.ms)
	res.Metrics["time_ms_p50"] = minOf(p50)
	res.Metrics["throughput_tps"] = maxOf(tps)
	res.Metrics["cpu_ms_per_op"] = minOf(cpu)

	all := sorted(w.ms)
	total := w.marks[parts]
	tail := highestTail(len(all))
	res.notef("whole window: %d ops in %.2f s = %.4g 1/s, p50 %.4g ms, p%g %.4g ms (the highest percentile with %d samples beyond it), cpu %.4g ms/op",
		len(all), total.wall.Seconds(), float64(len(all))/total.wall.Seconds(),
		percentile(all, 50), tail, percentile(all, tail), tailSamples,
		msOf(total.cpu-w.marks[0].cpu)/float64(max(len(all), 1)))
	res.notef("sub-window p50 (ms): %s", fmtList(p50))
}

// closedLoop is the measured window of a one-caller workload: op runs back
// to back, each writing out, until the window's last sub-window is closed.
// The first, every 16th and the last output are checked between operations;
// the wall and CPU time of checking are taken out of the window's clocks,
// and the CPU is this process's (the system under test runs in it). An
// operation that returns an error ends the window: a collective that failed
// leaves its mesh unusable.
func closedLoop(cfg *runConfig, res *result, chk *checker, in *inputs, out []complex128, op func(i int, x []complex128) (time.Duration, error)) {
	var log windowLog
	var checkWall, checkCPU time.Duration
	cpu0, start := selfCPU(), time.Now()
	now := func() (wall, cpu time.Duration) {
		return time.Since(start) - checkWall, selfCPU() - cpu0 - checkCPU
	}
	verify := func(want []complex128) {
		w0, c0 := time.Now(), selfCPU()
		if !chk.check(out, want) {
			res.Failed++
		}
		checkWall += time.Since(w0)
		checkCPU += selfCPU() - c0
	}
	log.addMark(0, 0)
	part := cfg.window() / subWindows
	var lastWant []complex128
	for i := 0; len(log.marks) <= subWindows; i++ {
		x, want := in.pick(i)
		took, err := op(i, x)
		res.Attempted++
		if err != nil {
			res.Failed++
			res.notef("operation %d: %v", i, err)
			lastWant = nil
			break
		}
		wall, _ := now()
		log.add(wall, msOf(took))
		lastWant = want
		if sampled(i, 16) {
			verify(want)
			lastWant = nil
		}
		if wall, cpu := now(); wall >= time.Duration(len(log.marks))*part {
			log.addMark(wall, cpu)
		}
	}
	if lastWant != nil {
		verify(lastWant)
	}
	if len(log.marks) <= subWindows {
		log.addMark(now())
	}
	log.fill(res)
}

func fmtList(xs []float64) string {
	var b strings.Builder
	for _, x := range xs {
		fmt.Fprintf(&b, "%.4g ", x)
	}
	return strings.TrimSpace(b.String())
}

// timeReps runs f reps times and returns each duration in milliseconds.
func timeReps(reps int, f func()) []float64 { return timeFor(reps, 0, f) }

// timeFor runs f at least reps times and for at least d, and returns each
// duration in milliseconds.
func timeFor(reps int, d time.Duration, f func()) []float64 {
	var ms []float64
	for start := time.Now(); len(ms) < reps || time.Since(start) < d; {
		t0 := time.Now()
		f()
		ms = append(ms, msOf(time.Since(t0)))
	}
	return ms
}

// msOf converts a duration to float milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / 1e6 }
