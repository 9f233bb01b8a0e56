// Package analysis is soifft's repo-native static-analysis suite: the six
// checks that are each the first — usually the only — gate to notice some
// class of defect seeded into the real module. That claim is an experiment,
// not a belief: matrix_rows_test.go seeds 58 defects (every historical bug
// that can be re-introduced deterministically, and two or three mutants of
// real code per failure class an analyzer claimed) and records which gate
// — the compiler, go vet, a tier-1 test, a budget tool, an analyzer, -race,
// a fuzz target — fires first. TestCatchMatrix re-checks the static half in
// tier-1 and fails on an analyzer that is the first gate of no row —
// everything it catches, something cheaper to own catches too, so it is
// deleted; scripts/check.sh re-runs the dynamic half. DESIGN.md §7 prints
// the table.
//
// The survivors, by what they are built on:
//
//   - syntax and types only: communicator errors must not be discarded at
//     the call (errdrop), kernel loops must read twiddles from tables, not
//     compute them (twiddleloop), and par.For bodies must not write
//     captured state (parcapture);
//   - the intraprocedural CFG (cfg.go): a stored communicator error must be
//     read on every path to return (errflow), channel close/send protocols
//     and //soilint:chan contracts must hold (chanlife), and acquired
//     io.Closers must be closed or transferred on every path that uses them
//     (closeflow, which also summarizes the module-local functions it calls
//     to see through dial and listen wrappers).
//
// The framework is standard-library only (go/ast, go/build, go/parser,
// go/types): a Loader that parses and type-checks the files of each module
// package the host's go build would compile, an Analyzer type with
// position-carrying Diagnostics, and one comment-directive grammar
// (directive.go) with three verbs: chanlife's "chan", and the two
// suppressions
//
//	//soilint:ignore <check>[,<check>...] [justification]
//
// on the offending line or the line directly above it, and
//
//	//soilint:file-ignore <check>[,<check>...] -- <reason>
//
// conventionally at the top of a file, for the whole file (the reason after
// "--" is mandatory; without one the directive suppresses nothing).
// Suppressed findings are reported separately so the CLI can list them with
// -v without failing the build.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding, anchored to a file position.
type Diagnostic struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// String renders the conventional file:line:col: [check] message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Analyzer is one check. Run inspects the package and reports findings
// through the pass; it must not retain the pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one (package, analyzer) execution.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	p.diags = append(p.diags, Diagnostic{
		Check:   p.Analyzer.Name,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// All lists every registered analyzer in stable order.
var All = []*Analyzer{ErrDrop, TwiddleLoop, ParCapture, ErrFlow, ChanLife, CloseFlow}

// ByName resolves a comma-separated check list ("errflow,errdrop") against
// the registry; the empty string selects all analyzers.
func ByName(list string) ([]*Analyzer, error) {
	if strings.TrimSpace(list) == "" {
		return All, nil
	}
	byName := make(map[string]*Analyzer, len(All))
	for _, a := range All {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown check %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// suppressions records, for one package, which findings a directive covers:
// an ignore directive covers the checks it names on its own line and the
// line directly below, a file-ignore directive covers them in its whole file.
type suppressions struct {
	lines  *directiveIndex
	byFile map[string]map[string]bool
}

// collectSuppressions scans every comment of the package for ignore and
// file-ignore directives.
func collectSuppressions(pkg *Package) suppressions {
	lines, _ := collectDirectives(pkg, "ignore", nil)
	files, _ := collectDirectives(pkg, "file-ignore", nil)
	sup := suppressions{lines: lines, byFile: make(map[string]map[string]bool)}
	for _, d := range files.all {
		file := pkg.Fset.Position(d.pos).Filename
		if sup.byFile[file] == nil {
			sup.byFile[file] = make(map[string]bool)
		}
		for _, ch := range fileIgnoreChecks(d.args) {
			sup.byFile[file][ch] = true
		}
	}
	return sup
}

// ignoreChecks returns the check names of an ignore directive's arguments:
// "check1[,check2...] [free-form justification]".
func ignoreChecks(args []string) []string {
	if len(args) == 0 {
		return nil
	}
	return splitList(args[0])
}

// fileIgnoreChecks returns the check names of a file-ignore directive's
// arguments: "check1[,check2...] -- reason". The "-- reason" part is
// mandatory: a file-wide waiver with no recorded justification names no
// checks and so suppresses nothing.
func fileIgnoreChecks(args []string) []string {
	if len(args) < 2 || strings.HasPrefix(args[0], "--") {
		return nil
	}
	reason, ok := strings.CutPrefix(strings.Join(args[1:], " "), "--")
	if !ok || reason == "" {
		return nil
	}
	return splitList(args[0])
}

// suppressed reports whether d is covered by a line or file directive.
func (s suppressions) suppressed(d Diagnostic) bool {
	for _, dir := range s.lines.covering(d.File, d.Line) {
		if dir != nil && slices.Contains(ignoreChecks(dir.args), d.Check) {
			return true
		}
	}
	return s.byFile[d.File][d.Check]
}

// Run applies the analyzers to pkg and splits the findings into active and
// suppressed, each sorted by position and de-duplicated.
func Run(pkg *Package, analyzers []*Analyzer) (active, suppressed []Diagnostic) {
	return RunTimed(pkg, analyzers, nil)
}

// RunTimed is Run with per-analyzer wall-time accounting: when elapsed is
// non-nil, each analyzer's execution time over this package is accumulated
// into elapsed[name] (summing across packages when the caller reuses the
// map). The CLI's -timing flag and the CI trend artifact are built on it.
func RunTimed(pkg *Package, analyzers []*Analyzer, elapsed map[string]time.Duration) (active, suppressed []Diagnostic) {
	sup := collectSuppressions(pkg)
	seen := make(map[Diagnostic]bool)
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Pkg: pkg}
		start := time.Now()
		a.Run(pass)
		if elapsed != nil {
			elapsed[a.Name] += time.Since(start)
		}
		for _, d := range pass.diags {
			if seen[d] {
				continue
			}
			seen[d] = true
			if sup.suppressed(d) {
				suppressed = append(suppressed, d)
			} else {
				active = append(active, d)
			}
		}
	}
	sortDiags(active)
	sortDiags(suppressed)
	return active, suppressed
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
}

// inspectAll walks every file of the package.
func inspectAll(pkg *Package, fn func(ast.Node) bool) {
	for _, f := range pkg.Files {
		ast.Inspect(f, fn)
	}
}
