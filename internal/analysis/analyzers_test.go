package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// sharedLoader caches one loader (and its type-checked stdlib) across all
// tests in the package; source-importing math, math/cmplx and friends once
// keeps the suite fast.
var sharedLoader *Loader

func loaderFor(t *testing.T) *Loader {
	t.Helper()
	if sharedLoader == nil {
		l, err := NewLoader("../..")
		if err != nil {
			t.Fatalf("NewLoader: %v", err)
		}
		sharedLoader = l
	}
	return sharedLoader
}

func fixtureDir(parts ...string) string {
	return filepath.Join(append([]string{"testdata", "src"}, parts...)...)
}

// TestAnalyzersGolden runs each analyzer over its fixture package and
// compares the reported (file, line) sets — both active and suppressed —
// against the golden expectations. Every analyzer demonstrates at least one
// true positive and one suppressed finding.
func TestAnalyzersGolden(t *testing.T) {
	tests := []struct {
		name           string
		dir            string
		analyzer       *Analyzer
		wantActive     []int
		wantSuppressed []int
	}{
		{
			name:           "twiddleloop",
			dir:            fixtureDir("trig", "internal", "fft"),
			analyzer:       TwiddleLoop,
			wantActive:     []int{13, 26},
			wantSuppressed: []int{43},
		},
		{
			name:           "parcapture",
			dir:            fixtureDir("parcapture"),
			analyzer:       ParCapture,
			wantActive:     []int{11, 20, 27, 47},
			wantSuppressed: []int{56},
		},
		{
			// Send-after-close (13), double close (20), close in a loop
			// (27), token contract without/after mu (57, 64), close outside
			// the owner (74), the two bad directives (79 malformed role,
			// 84 unbound), and a send under a token naming a mutex that
			// does not exist (94, reported at the send).
			name:           "chanlife",
			dir:            fixtureDir("chanlife"),
			analyzer:       ChanLife,
			wantActive:     []int{13, 20, 27, 57, 64, 74, 79, 84, 94},
			wantSuppressed: []int{102},
		},
		{
			// A used-then-leaked conn (14), the same leak through a
			// freshCloser wrapper (63), and a discarded acquire (120). The
			// error-path read witness, defer Close, temp+rename idiom,
			// closesParam helper and keeper shapes stay silent.
			name:           "closeflow",
			dir:            fixtureDir("closeflow"),
			analyzer:       CloseFlow,
			wantActive:     []int{14, 63, 120},
			wantSuppressed: []int{125},
		},
		{
			name:           "file-ignore suppresses named check",
			dir:            fixtureDir("fileignore"),
			analyzer:       CloseFlow,
			wantActive:     nil,
			wantSuppressed: []int{12, 13, 14},
		},
		{
			name:           "file-ignore leaves other checks live",
			dir:            fixtureDir("fileignore"),
			analyzer:       ChanLife,
			wantActive:     []int{27},
			wantSuppressed: nil,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			pkg, err := loaderFor(t).LoadDir(tt.dir)
			if err != nil {
				t.Fatalf("LoadDir(%s): %v", tt.dir, err)
			}
			if len(pkg.TypeErrors) > 0 {
				t.Fatalf("fixture %s has type errors: %v", tt.dir, pkg.TypeErrors)
			}
			active, suppressed := Run(pkg, []*Analyzer{tt.analyzer})
			checkLines(t, "active", active, tt.wantActive, tt.analyzer.Name)
			checkLines(t, "suppressed", suppressed, tt.wantSuppressed, tt.analyzer.Name)
		})
	}
}

// checkLines compares reported diagnostic lines to the golden set.
func checkLines(t *testing.T, kind string, got []Diagnostic, wantLines []int, check string) {
	t.Helper()
	gotLines := map[int]int{}
	for _, d := range got {
		if d.Check != check {
			t.Errorf("%s diagnostic has check %q, want %q", kind, d.Check, check)
		}
		if d.Message == "" {
			t.Errorf("%s diagnostic at line %d has empty message", kind, d.Line)
		}
		gotLines[d.Line]++
	}
	want := map[int]bool{}
	for _, l := range wantLines {
		want[l] = true
		if gotLines[l] == 0 {
			t.Errorf("missing %s finding at line %d", kind, l)
		}
	}
	for l := range gotLines {
		if !want[l] {
			t.Errorf("unexpected %s finding at line %d", kind, l)
		}
	}
}

// TestRepoIsClean is the enforceable gate in test form: the analyzers over
// the real module tree must report zero unsuppressed findings. This is the
// same invariant scripts/check.sh enforces via the soilint CLI.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped with -short")
	}
	pkgs, err := loaderFor(t).LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatalf("LoadPatterns: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("expected to load the whole module, got %d packages", len(pkgs))
	}
	for _, pkg := range pkgs {
		// Analyzers run on whatever type information a package yields, so
		// a package that stopped type-checking must not pass for clean.
		for _, te := range pkg.TypeErrors {
			t.Errorf("%s does not type-check: %v", pkg.Path, te)
		}
		active, _ := Run(pkg, All)
		for _, d := range active {
			t.Errorf("unsuppressed finding: %s", d)
		}
	}
}

// TestByName covers check selection.
func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(All) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want all %d", len(all), err, len(All))
	}
	two, err := ByName("closeflow, chanlife")
	if err != nil || len(two) != 2 || two[0] != CloseFlow || two[1] != ChanLife {
		t.Fatalf("ByName(closeflow,chanlife) = %v, err %v", two, err)
	}
	if _, err := ByName("nosuchcheck"); err == nil || !strings.Contains(err.Error(), "nosuchcheck") {
		t.Fatalf("ByName(nosuchcheck) err = %v, want unknown-check error", err)
	}
}

// parseIgnore and parseFileIgnore extract the check names from one comment,
// if it is that directive and names any: the path collectSuppressions takes.
func parseIgnore(text string) ([]string, bool) {
	verb, args, _ := parseDirective(text)
	checks := ignoreChecks(args)
	return checks, verb == "ignore" && len(checks) > 0
}

func parseFileIgnore(text string) ([]string, bool) {
	verb, args, _ := parseDirective(text)
	checks := fileIgnoreChecks(args)
	return checks, verb == "file-ignore" && len(checks) > 0
}

// TestParseIgnore covers the directive grammar.
func TestParseIgnore(t *testing.T) {
	tests := []struct {
		text string
		want []string
	}{
		{"//soilint:ignore closeflow", []string{"closeflow"}},
		{"// soilint:ignore closeflow justified because reasons", []string{"closeflow"}},
		{"//soilint:ignore closeflow,chanlife shared justification", []string{"closeflow", "chanlife"}},
		{"/*soilint:ignore parcapture*/", []string{"parcapture"}},
		{"//soilint:ignore", nil},            // no checks named
		{"// just a comment", nil},           // not a directive
		{"//soilint:ignored closeflow", nil}, // wrong directive word
	}
	for _, tt := range tests {
		got, ok := parseIgnore(tt.text)
		if tt.want == nil {
			if ok {
				t.Errorf("parseIgnore(%q) = %v, want no directive", tt.text, got)
			}
			continue
		}
		if !ok || len(got) != len(tt.want) {
			t.Errorf("parseIgnore(%q) = %v, %v; want %v", tt.text, got, ok, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("parseIgnore(%q)[%d] = %q, want %q", tt.text, i, got[i], tt.want[i])
			}
		}
	}
}

// TestParseFileIgnore covers the file-scoped directive grammar, in
// particular that the "-- reason" part is mandatory.
func TestParseFileIgnore(t *testing.T) {
	tests := []struct {
		text string
		want []string
	}{
		{"//soilint:file-ignore closeflow -- generated file", []string{"closeflow"}},
		{"// soilint:file-ignore closeflow,chanlife -- shared reason", []string{"closeflow", "chanlife"}},
		{"/*soilint:file-ignore parcapture -- reason*/", []string{"parcapture"}},
		{"//soilint:file-ignore closeflow", nil},       // missing -- reason
		{"//soilint:file-ignore closeflow --", nil},    // empty reason
		{"//soilint:file-ignore -- reason only", nil},  // no checks named
		{"//soilint:ignore closeflow -- reason", nil},  // wrong directive word
		{"//soilint:file-ignored closeflow -- x", nil}, // not this directive
	}
	for _, tt := range tests {
		got, ok := parseFileIgnore(tt.text)
		if tt.want == nil {
			if ok {
				t.Errorf("parseFileIgnore(%q) = %v, want no directive", tt.text, got)
			}
			continue
		}
		if !ok || len(got) != len(tt.want) {
			t.Errorf("parseFileIgnore(%q) = %v, %v; want %v", tt.text, got, ok, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("parseFileIgnore(%q)[%d] = %q, want %q", tt.text, i, got[i], tt.want[i])
			}
		}
	}
}
