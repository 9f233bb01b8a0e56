package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchmarkFile is the part of BENCHMARK.json this package reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []declMetric    `json:"per_layer"`
}

type declMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type boundedMetric struct {
	declMetric
	Bound float64 `json:"bound"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &f, nil
}

func readResultSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// worseBy is how much worse b is than a as a share of a, in the metric's
// own direction (negative when b is better).
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// sideMedian is the median over one side's result sets of a workload's
// end-to-end metric.
func sideMedian(sets []*resultSet, workload, metric string) float64 {
	var vs []float64
	for _, s := range sets {
		vs = append(vs, s.Workloads[workload].EndToEnd.Metrics[metric].Value)
	}
	return median(vs)
}

// compareSets is the A/A check behind bench/aa.sh. The files are result
// sets of one commit, the first half forming side a and the second half side
// b. Per workload and end-to-end metric, the two sides' medians must agree
// within the bound BENCHMARK.json fixes, in either direction, and no set may
// hold a failed or wrong operation.
func compareSets(root string, paths []string) error {
	spec, err := readBenchmarkFile(root)
	if err != nil {
		return err
	}
	var sets []*resultSet
	for _, p := range paths {
		s, err := readResultSet(p)
		if err != nil {
			return err
		}
		sets = append(sets, s)
	}
	a, b := sets[:len(sets)/2], sets[len(sets)/2:]
	misses := 0
	fmt.Printf("%-22s %-16s %12s %12s %8s %7s\n", "workload", "metric", "a", "b", "diff", "bound")
	for _, w := range spec.Workloads {
		for _, s := range sets {
			ws := s.Workloads[w.Name]
			for _, line := range []resultLine{ws.EndToEnd, ws.PerLayer} {
				if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
					fmt.Printf("%-22s a run is missing, failed or wrong (attempted %d, failed %d)\n", w.Name, line.Attempted, line.Failed)
					misses++
				}
			}
		}
		for _, m := range spec.EndToEnd {
			va, vb := sideMedian(a, w.Name, m.Name), sideMedian(b, w.Name, m.Name)
			d := max(worseBy(va, vb, m.Better), worseBy(vb, va, m.Better))
			verdict := "ok"
			if d > m.Bound {
				verdict = "MISS"
				misses++
			}
			fmt.Printf("%-22s %-16s %12.6g %12.6g %7.2f%% %6.1f%% %s\n", w.Name, m.Name, va, vb, 100*d, 100*m.Bound, verdict)
		}
	}
	if misses > 0 {
		return fmt.Errorf("%d misses: the two sides disagree by more than the benchmark's own bounds", misses)
	}
	return nil
}
