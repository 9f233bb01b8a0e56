package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// BENCHMARK.json must declare exactly the metrics and workloads the code
// emits, and stay inside the limits its readers enforce.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec, err := readBenchmarkFile(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layers []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs from the code's table:\n file %v\n code %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer differs from the code's table:\n file %v\n code %v", layers, perLayer)
	}
	var names, coded []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	for _, w := range workloads {
		coded = append(coded, w.Name)
	}
	if !reflect.DeepEqual(names, coded) {
		t.Errorf("workloads: file %v, code %v", names, coded)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v breaks the naming rules", m)
		}
		if seen[m.Name] {
			t.Errorf("metric name %s is used twice", m.Name)
		}
		seen[m.Name] = true
	}
	if endToEnd[0] != (metricDef{"setup_s", "s", "lower"}) {
		t.Errorf("first end-to-end metric is %+v, want setup_s", endToEnd[0])
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.PerLayer) > 128 || len(spec.EndToEnd) > 16 {
		t.Errorf("run_seconds %d, %d per-layer, %d end-to-end: outside the limits", spec.RunSeconds, len(spec.PerLayer), len(spec.EndToEnd))
	}
}

func metricNames(line resultLine) []string {
	var names []string
	for n := range line.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func declaredNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs the real benchmark binary over every workload and both
// passes in its shrunk mode, then proves that the checker checks: a run whose
// output the benchmark corrupts itself must count a failure and exit non-zero.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs soiperf and soifftd; skipped with -short")
	}
	root := repoRoot(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "soiperf")
	build := exec.Command("go", "build", "-o", bin, "./bench/soiperf")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building soiperf: %v\n%s", err, out)
	}
	soifftd, err := buildSoifftd(root)
	if err != nil {
		t.Fatal(err)
	}

	setFile := filepath.Join(dir, "set.json")
	all := exec.Command(bin, "-smoke", "-soifftd", soifftd, "-out", setFile)
	all.Dir = root
	if out, err := all.CombinedOutput(); err != nil {
		t.Fatalf("soiperf -smoke: %v\n%s", err, out)
	}
	set, err := readResultSet(setFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Workloads) != len(workloads) {
		t.Errorf("result set holds %d workloads, want %d", len(set.Workloads), len(workloads))
	}
	for _, w := range workloads {
		ws, ok := set.Workloads[w.Name]
		if !ok {
			t.Errorf("workload %s is missing from the result set", w.Name)
			continue
		}
		if got, want := metricNames(ws.EndToEnd), declaredNames(endToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s untraced pass emitted %v, want %v", w.Name, got, want)
		}
		if got, want := metricNames(ws.PerLayer), declaredNames(perLayer); !reflect.DeepEqual(got, want) {
			t.Errorf("%s traced pass emitted %v, want %v", w.Name, got, want)
		}
		for pass, line := range []resultLine{ws.EndToEnd, ws.PerLayer} {
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s pass %d: correct=%v attempted=%d failed=%d", w.Name, pass, line.Correct, line.Attempted, line.Failed)
			}
		}
		for name, v := range ws.EndToEnd.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g, must be positive", w.Name, name, v.Value)
			}
		}
		if _, err := os.Stat(filepath.Join(root, "bench", "results", "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", w.Name, err)
		}
	}

	for _, w := range []string{"lib_soi_458k", "serve_1k_closed"} {
		bad := exec.Command(bin, "-smoke", "-corrupt", "-workload", w, "-soifftd", soifftd)
		bad.Dir = root
		out, err := bad.Output()
		if err == nil {
			t.Errorf("%s: a corrupted output did not fail the run", w)
		}
		var line resultLine
		_, last := splitLastLine(out)
		if jerr := json.Unmarshal(last, &line); jerr != nil {
			t.Fatalf("%s: no result line after a corrupted run: %v\n%s", w, jerr, out)
		}
		if line.Correct || line.Failed < 1 || float64(line.Failed)/float64(line.Attempted) <= 0 {
			t.Errorf("%s: corrupted run reported correct=%v failed=%d of %d", w, line.Correct, line.Failed, line.Attempted)
		}
	}
}
