// Command soiperf is the repository's benchmark: five workloads over the
// library (soifft.Plan), distributed (dist.SOI over a TCP mesh) and served
// (cmd/soifftd over loopback) FFT paths, each checked against the exact FFT,
// each reported as end-to-end metrics (untraced pass) and per-layer metrics
// (traced pass). BENCHMARK.json at the repository root declares the names;
// bench/README.md explains them.
//
//	go run ./bench/soiperf                         # all workloads, both passes
//	go run ./bench/soiperf -workload lib_soi_458k -seed 3 -seconds 10 -trace 0
//	go run ./bench/soiperf -compare a1.json a2.json b1.json b2.json  # side a vs side b
//
// With -workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}. The exit code is non-zero when
// any checked output is wrong or any operation fails.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	smoke    bool
	corrupt  bool
	soifftd  string
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload (default: all, each in its own process, both passes)")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured window per pass, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics)")
	flag.StringVar(&o.out, "out", "", "without -workload: also write the result set to this JSON file")
	flag.BoolVar(&o.smoke, "smoke", false, "shrunk sizes and repetitions (the package test's mode); numbers are not comparable")
	flag.BoolVar(&o.corrupt, "corrupt", false, "test hook: corrupt one sampled output bench-side; the run must then fail")
	flag.StringVar(&o.soifftd, "soifftd", "", "path of a built cmd/soifftd (default: build it into .bench_build/)")
	flag.BoolVar(&o.compare, "compare", false, "compare result-set files (first half: side a, second half: side b) against BENCHMARK.json's bounds")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "soiperf:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	if o.compare {
		if len(args) < 2 || len(args)%2 != 0 {
			return errors.New("-compare needs an even number of result-set files: side a, then side b")
		}
		return compareSets(root, args)
	}
	if o.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	if o.smoke {
		o.seconds = 1
	}
	if o.workload == "" {
		return runAll(root, o)
	}
	def, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if err := pinToOneProcessor(); err != nil {
		// A sandbox may forbid it; the run is still valid, only noisier.
		fmt.Fprintln(os.Stderr, "soiperf: not bound to one processor, timings will be noisier:", err)
	}
	if strings.HasPrefix(o.workload, "serve_") && o.soifftd == "" {
		if o.soifftd, err = buildSoifftd(root); err != nil {
			return err
		}
	}
	traceDir := filepath.Join(root, "bench", "results")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	cfg := &runConfig{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace != 0,
		Smoke: o.smoke, Corrupt: o.corrupt, Soifftd: o.soifftd, TraceDir: traceDir,
	}
	host := readHostFacts()
	fmt.Printf("# soiperf workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s llc_bytes=%d kernel=%s\n",
		o.workload, o.seed, o.seconds, o.trace, host.NProc, host.GOMAXPROCS, host.GoVersion, host.LLCBytes, host.Kernel)
	res, err := def.Run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	line, err := report(os.Stdout, res, defs, cfg.Trace)
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	fmt.Println(line)
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed or were wrong", o.workload, res.Failed, res.Attempted)
	}
	return nil
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// moduleRoot finds the repository root: the nearest directory at or above
// the working directory whose go.mod declares module soifft.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module soifft\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the soifft module (no go.mod declaring it at or above the working directory)")
		}
		dir = parent
	}
}

// buildSoifftd builds the real server binary from source into the
// git-ignored .bench_build directory. Build time is outside every metric.
func buildSoifftd(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "soifftd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/soifftd")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/soifftd: %w\n%s", err, b)
	}
	return bin, nil
}

// metricValue is one metric in the JSON result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a single-workload run prints last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints every declared metric by name with its unit and returns the
// JSON result line. An end-to-end metric the run did not measure, or a
// measured name that is not declared, is a bug in the benchmark. A per-layer
// metric whose layer is not on the workload's path reads 0.
func report(w io.Writer, res *result, defs []metricDef, traced bool) (string, error) {
	declared := map[string]bool{}
	line := resultLine{
		Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]metricValue{},
	}
	for _, d := range defs {
		declared[d.Name] = true
		v, ok := res.Metrics[d.Name]
		if !ok && !traced {
			return "", fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		line.Metrics[d.Name] = metricValue{v, d.Unit}
		fmt.Fprintf(w, "%-30s %14.6g %s\n", d.Name, v, d.Unit)
	}
	for name := range res.Metrics {
		if !declared[name] {
			return "", fmt.Errorf("measured metric %s is not declared", name)
		}
	}
	for _, n := range res.Notes {
		fmt.Fprintln(w, "# note:", n)
	}
	fmt.Fprintf(w, "# samples=%d attempted=%d failed=%d fail_frac=%g\n",
		res.Samples, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	b, err := json.Marshal(line)
	return string(b), err
}

// workloadSet is one workload's two passes in a result set.
type workloadSet struct {
	EndToEnd resultLine `json:"end_to_end"`
	PerLayer resultLine `json:"per_layer"`
}

// resultSet is what the all-workloads mode writes with -out: the input of
// -compare and the format of bench/results/baseline-*.json.
type resultSet struct {
	Host      hostFacts              `json:"host"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Workloads map[string]workloadSet `json:"workloads"`
}

// tracedSeconds is the window of the traced pass in the all-workloads mode.
const tracedSeconds = 8

// runAll runs every workload in its own process, untraced then traced.
func runAll(root string, o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if o.soifftd == "" {
		if o.soifftd, err = buildSoifftd(root); err != nil {
			return err
		}
	}
	set := resultSet{Host: readHostFacts(), Seed: o.seed, Seconds: o.seconds, Workloads: map[string]workloadSet{}}
	start := time.Now()
	var failed []string
	for _, w := range workloads {
		var ws workloadSet
		for pass, dst := range []*resultLine{&ws.EndToEnd, &ws.PerLayer} {
			secs := o.seconds
			if pass == 1 {
				secs = min(secs, tracedSeconds)
			}
			args := []string{"-workload", w.Name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(secs),
				"-trace", fmt.Sprint(pass), "-soifftd", o.soifftd}
			if o.smoke {
				args = append(args, "-smoke")
			}
			line, err := runChild(self, args)
			if err != nil {
				failed = append(failed, fmt.Sprintf("%s (trace %d): %v", w.Name, pass, err))
			}
			if line != nil {
				*dst = *line
			}
		}
		set.Workloads[w.Name] = ws
	}
	fmt.Printf("# all workloads, both passes: %.1f s\n", time.Since(start).Seconds())
	if o.out != "" {
		b, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed runs:\n  %s", strings.Join(failed, "\n  "))
	}
	return nil
}

// splitLastLine cuts a run's standard output into its report and its final
// line, the JSON result.
func splitLastLine(out []byte) (report, last []byte) {
	out = bytes.TrimRight(out, "\n")
	i := bytes.LastIndexByte(out, '\n') + 1
	return out[:i], out[i:]
}

// runChild runs one workload pass in a child process, copies its report to
// standard output and parses its final JSON line.
func runChild(self string, args []string) (*resultLine, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	report, last := splitLastLine(out)
	os.Stdout.Write(report)
	var line resultLine
	if err := json.Unmarshal(last, &line); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &line, runErr
}
