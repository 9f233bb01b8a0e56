// Soilint runs the repo-native static analyzers over soifft packages: the
// checks no cheaper gate performs (per-element trigonometry in kernel
// loops, parallel bodies writing captured state, channel close/send
// protocols, leaked conns and files). See internal/analysis for the checks
// and the catch matrix that keeps each of them.
//
// Usage:
//
//	soilint [-json] [-sarif] [-stats] [-timing] [-checks closeflow,chanlife,...] [-v] [packages]
//
// Packages default to ./... relative to the enclosing module root. Exit
// status: 0 clean, 1 findings or a package that does not type-check, 2
// usage or load failure. -sarif emits SARIF
// 2.1.0 (for CI code-scanning upload) instead of the plain listing; -stats
// emits per-check active/suppressed counts plus per-check wall time as JSON
// (the CI lint-trend artifact); like -json both still exit 1 on findings.
// -timing prints a per-analyzer wall-time table to stderr.
// -timing-budget-file names a JSON map of check name to maximum wall time
// in milliseconds and is a hard gate: an analyzer over its budget, a
// selected analyzer with no entry, or an entry naming no known analyzer
// all fail the run with exit 1 (the checked-in timing_budget.json is the
// CI contract; widen it deliberately in review).
// Findings are suppressed line-by-line
// with a justified "//soilint:ignore <check>" comment on the offending line
// or the line above, or file-wide with "//soilint:file-ignore <check> --
// <reason>" at the top of the file (the reason is mandatory); -v lists what
// they suppress.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"soifft/internal/analysis"
)

func main() {
	os.Exit(run())
}

func run() int {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	sarifOut := flag.Bool("sarif", false, "emit findings as SARIF 2.1.0")
	statsOut := flag.Bool("stats", false, "emit per-check active/suppressed counts and wall time as JSON")
	checks := flag.String("checks", "", "comma-separated checks to run (default: all)")
	verbose := flag.Bool("v", false, "also list suppressed findings")
	timing := flag.Bool("timing", false, "print a per-analyzer wall-time table to stderr")
	timingBudgetFile := flag.String("timing-budget-file", "", "JSON map of check name to max wall time in ms; a hard gate: over budget, a selected check with no entry, or an unknown entry exits 1")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: soilint [-json] [-sarif] [-stats] [-timing] [-checks list] [-v] [packages]\navailable checks:\n")
		for _, a := range analysis.All {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	analyzers, err := analysis.ByName(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "soilint:", err)
		return 2
	}
	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "soilint:", err)
		return 2
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "soilint:", err)
		return 2
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.LoadPatterns(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "soilint:", err)
		return 2
	}

	active, suppressed := []analysis.Diagnostic{}, []analysis.Diagnostic{}
	elapsed := make(map[string]time.Duration, len(analyzers))
	typeErrors := false
	for _, pkg := range pkgs {
		// A package that does not type-check is analysed on partial type
		// information, so silence from the analyzers means nothing: fail.
		for _, te := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "soilint: typecheck %s: %v\n", pkg.Path, te)
			typeErrors = true
		}
		a, s := analysis.RunTimed(pkg, analyzers, elapsed)
		active = append(active, a...)
		suppressed = append(suppressed, s...)
	}
	relativize(root, active)
	relativize(root, suppressed)

	if *timing {
		writeTimingTable(os.Stderr, analyzers, elapsed)
	}
	budgetFailed := false
	if *timingBudgetFile != "" {
		budget, err := loadTimingBudget(*timingBudgetFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "soilint:", err)
			return 2
		}
		for _, v := range timingViolations(budget, analyzers, analysis.All, elapsed) {
			fmt.Fprintf(os.Stderr, "soilint: timing budget: %s\n", v)
			budgetFailed = true
		}
	}

	switch {
	case *statsOut:
		if err := writeStats(os.Stdout, analyzers, active, suppressed, elapsed); err != nil {
			fmt.Fprintln(os.Stderr, "soilint:", err)
			return 2
		}
	case *sarifOut:
		if err := writeSARIF(os.Stdout, analyzers, active); err != nil {
			fmt.Fprintln(os.Stderr, "soilint:", err)
			return 2
		}
	case *jsonOut:
		out := struct {
			Findings   []analysis.Diagnostic `json:"findings"`
			Suppressed []analysis.Diagnostic `json:"suppressed"`
		}{Findings: active, Suppressed: suppressed}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "soilint:", err)
			return 2
		}
	default:
		for _, d := range active {
			fmt.Println(d)
		}
		if *verbose {
			for _, d := range suppressed {
				fmt.Printf("%s (suppressed)\n", d)
			}
		}
	}
	if len(active) > 0 {
		if !*jsonOut && !*statsOut {
			fmt.Fprintf(os.Stderr, "soilint: %d finding(s)\n", len(active))
		}
		return 1
	}
	if budgetFailed || typeErrors {
		return 1
	}
	return 0
}

// loadTimingBudget reads a JSON object mapping check name to its maximum
// wall time in milliseconds (the checked-in timing_budget.json).
func loadTimingBudget(path string) (map[string]int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("timing budget: %w", err)
	}
	budget := make(map[string]int64)
	if err := json.Unmarshal(data, &budget); err != nil {
		return nil, fmt.Errorf("timing budget %s: %w", path, err)
	}
	return budget, nil
}

// timingViolations audits measured analyzer wall time against a hard
// budget. Three shapes violate: a selected analyzer over its budget, a
// selected analyzer with no entry (a new check must be budgeted when it
// lands, exactly as a new function must be budgeted in the escape gate),
// and an entry naming no known analyzer (a stale or misspelled key would
// otherwise rot the gate silently). Messages are stable-ordered so CI
// logs diff cleanly.
func timingViolations(budget map[string]int64, selected, known []*analysis.Analyzer, elapsed map[string]time.Duration) []string {
	var v []string
	for _, a := range selected {
		ms, ok := budget[a.Name]
		if !ok {
			v = append(v, fmt.Sprintf("check %s has no budget entry; add one to the budget file", a.Name))
			continue
		}
		if got := elapsed[a.Name].Milliseconds(); got > ms {
			v = append(v, fmt.Sprintf("check %s took %dms across all packages, over its %dms budget", a.Name, got, ms))
		}
	}
	names := make(map[string]bool, len(known))
	for _, a := range known {
		names[a.Name] = true
	}
	stale := make([]string, 0, len(budget))
	for key := range budget {
		if !names[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		v = append(v, fmt.Sprintf("budget entry %q names no known check; remove it", key))
	}
	return v
}

// checkStats is one row of the -stats output. WallMS is the analyzer's
// total execution time across every analyzed package, in milliseconds, so
// successive CI artifacts trend analyzer cost alongside finding counts.
type checkStats struct {
	Active     int   `json:"active"`
	Suppressed int   `json:"suppressed"`
	WallMS     int64 `json:"wall_ms"`
}

// writeStats emits per-check finding counts and wall time as JSON. Every
// selected check gets a row, zeros included, so successive CI trend
// artifacts diff cleanly even when a check goes quiet.
func writeStats(w io.Writer, analyzers []*analysis.Analyzer, active, suppressed []analysis.Diagnostic, elapsed map[string]time.Duration) error {
	checks := make(map[string]*checkStats, len(analyzers))
	for _, a := range analyzers {
		checks[a.Name] = &checkStats{WallMS: elapsed[a.Name].Milliseconds()}
	}
	var total checkStats
	for _, d := range active {
		if c := checks[d.Check]; c != nil {
			c.Active++
		}
		total.Active++
	}
	for _, d := range suppressed {
		if c := checks[d.Check]; c != nil {
			c.Suppressed++
		}
		total.Suppressed++
	}
	for _, c := range checks {
		total.WallMS += c.WallMS
	}
	out := struct {
		Total  checkStats             `json:"total"`
		Checks map[string]*checkStats `json:"checks"`
	}{Total: total, Checks: checks}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// writeTimingTable prints per-analyzer wall time, slowest first.
func writeTimingTable(w io.Writer, analyzers []*analysis.Analyzer, elapsed map[string]time.Duration) {
	rows := make([]*analysis.Analyzer, len(analyzers))
	copy(rows, analyzers)
	sort.SliceStable(rows, func(i, j int) bool {
		return elapsed[rows[i].Name] > elapsed[rows[j].Name]
	})
	var total time.Duration
	for _, a := range rows {
		total += elapsed[a.Name]
	}
	fmt.Fprintf(w, "soilint: analyzer wall time (all packages)\n")
	for _, a := range rows {
		fmt.Fprintf(w, "  %-13s %8.1fms\n", a.Name, float64(elapsed[a.Name].Microseconds())/1000)
	}
	fmt.Fprintf(w, "  %-13s %8.1fms\n", "total", float64(total.Microseconds())/1000)
}

// relativize rewrites absolute file paths relative to the module root for
// stable, readable output.
func relativize(root string, ds []analysis.Diagnostic) {
	for i := range ds {
		if rel, err := filepath.Rel(root, ds[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			ds[i].File = rel
		}
	}
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
