// Command bcebudget pins the compiler's bounds-check-elimination verdict on
// the hot kernel packages. It runs `go build` with
// -gcflags='-d=ssa/check_bce/debug=1', which prints one "Found IsInBounds" /
// "Found IsSliceInBounds" line per bounds check the SSA backend could NOT
// eliminate, attributes each surviving check to its enclosing function, and
// diffs the counts against the checked-in bce_budget.json. Any check in
// excess of a function's budget — in particular any check in a function
// with no budget entry — fails the gate with exit code 1.
//
// Bounds checks are cheap individually but not free in the paper's
// bandwidth-bound inner loops: a check per element is a compare-and-branch
// on the critical path of kernels that are otherwise pure streaming
// arithmetic, and it blocks vectorization-friendly code shapes. This gate
// tracks how many of the slice relations the compiler proves, and stops hot
// loops from silently regressing to per-iteration checking when someone
// reorders an index expression. The budget records
// the residual checks that are deliberate (one-time reslice preambles,
// strided gathers the compiler cannot prove) so that only NEW checks fail.
//
// Usage:
//
//	bcebudget [-budget bce_budget.json] [-update] [-v] [packages...]
//
// With no packages, the six hot packages are audited. -update
// rewrites the budget file to match the current tree (use after deliberate
// changes, reviewing the diff). Exit codes: 0 within budget, 1 over budget,
// 2 usage or toolchain failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"soifft/internal/gcbudget"
)

// hotPackages are the audited kernels: the four packages whose inner loops
// execute per element per transform, plus the serving layer's per-frame
// path — the wire codec's encode/decode loops and the scheduler's batch
// assembly also run per element per request. The pipeline drivers
// (internal/soi, internal/dist) are covered by escapebudget but not here:
// their per-call slicing is O(segments), not O(N), so bounds checks there
// are noise.
var hotPackages = []string{
	"./internal/fft",
	"./internal/conv",
	"./internal/cvec",
	"./internal/window",
	"./internal/serve",
	"./internal/wire",
	"./internal/codec",
	"./client",
	"./cmd/soifftd",
}

// bceFlag is the SSA debug flag that reports every surviving bounds check.
const bceFlag = "-d=ssa/check_bce/debug=1"

// isBoundsCheck keeps the check_bce report lines.
func isBoundsCheck(msg string) bool {
	return strings.Contains(msg, "Found IsInBounds") || strings.Contains(msg, "Found IsSliceInBounds")
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bcebudget", flag.ContinueOnError)
	fs.SetOutput(stderr)
	budgetPath := fs.String("budget", "bce_budget.json", "budget file, relative to the module root")
	update := fs.Bool("update", false, "rewrite the budget file to match the current tree")
	verbose := fs.Bool("v", false, "list every surviving bounds check")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: bcebudget [flags] [packages...]\n\n")
		fmt.Fprintf(stderr, "Audits surviving bounds checks in the hot kernel packages against %s.\n", *budgetPath)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	pkgs := fs.Args()
	if len(pkgs) == 0 {
		pkgs = hotPackages
	}

	root, err := gcbudget.ModuleRoot()
	if err != nil {
		fmt.Fprintf(stderr, "bcebudget: %v\n", err)
		return 2
	}

	checks, err := gcbudget.Collect(root, bceFlag, pkgs, isBoundsCheck)
	if err != nil {
		fmt.Fprintf(stderr, "bcebudget: %v\n", err)
		return 2
	}
	counts := gcbudget.CountByFunc(root, checks)

	if *verbose {
		for _, c := range checks {
			fmt.Fprintf(stdout, "%s: %s:%d:%d: %s\n", c.Pkg, c.File, c.Line, c.Col, c.Msg)
		}
	}

	path := *budgetPath
	if !filepath.IsAbs(path) {
		path = filepath.Join(root, path)
	}
	if *update {
		if err := gcbudget.WriteBudget(path, counts); err != nil {
			fmt.Fprintf(stderr, "bcebudget: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "bcebudget: wrote %s (%d packages)\n", *budgetPath, len(counts))
		return 0
	}

	budget, err := gcbudget.ReadBudget(path)
	if err != nil {
		fmt.Fprintf(stderr, "bcebudget: %v (run with -update to create it)\n", err)
		return 2
	}
	problems, notes := gcbudget.DiffBudget(counts, budget, "bounds check(s)")
	for _, n := range notes {
		fmt.Fprintf(stdout, "bcebudget: note: %s\n", n)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(stderr, "bcebudget: FAIL: %s\n", p)
		}
		fmt.Fprintf(stderr, "bcebudget: %d function(s) over budget; if the new checks are deliberate, re-run with -update and commit the diff\n", len(problems))
		return 1
	}
	fmt.Fprintf(stdout, "bcebudget: ok (%d surviving bounds checks within budget across %d packages)\n", len(checks), len(counts))
	return 0
}
