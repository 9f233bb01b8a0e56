package analysis

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// The catch matrix is the suite's reason to exist, written down as an
// experiment: each row seeds one defect into the real module — a
// historical bug re-introduced by reverting its fix, or a mutant of real
// code in a failure class an analyzer claims — and records which gate
// catches it first. An analyzer is in the suite because a row below names
// it; an analyzer no row names is deleted, together with whatever a cheaper
// gate already catches (DESIGN.md §7 has the table and the ranking).
//
// Gates, cheapest to own first. A row's `first` is the lowest-ranked gate
// that fires on its seed:
//
//	go build    the compiler (a package stops type-checking)
//	go vet      the stock vet passes
//	test        a test tier-1 runs anyway: an oracle, a golden digest, an
//	            allocation budget, a hostile-input table, the testutil
//	            goroutine-leak gate (deterministic, already paid for)
//	<analyzer>  a soilint check (static, deterministic, ≈ 3 s for the tree,
//	            but several hundred lines each to own)
//	-race       check.sh's race gate (tier-2 only, 30 s, schedule-dependent)
//	fuzz        check.sh's fuzz smoke (tier-2 only, randomized)
//	none        nothing in the repository notices
//
// The static half of every row runs in tier-1 (TestCatchMatrix): the seed
// must still apply, and the set of analyzers that fire on it must be
// exactly `static`. The dynamic half — the recorded command, run on the
// seeded tree, must fail with `want` in its output — compiles and runs
// tests, so it runs only when asked for by name
// (scripts/check.sh: go test ./internal/analysis -run TestCatchMatrixDynamic).
type matrixRow struct {
	name   string   // row id, also the subtest name
	origin string   // "PR n: …" for a historical defect, "class: <analyzer>" for a mutant
	edits  []edit   // the seed
	pkgs   []string // package directories soilint must analyse to see the seed
	static []string // analyzers (or "typecheck") that fire on pkgs — exactly these
	first  string   // first gate to fire, in the ranking above
	cmd    string   // the exact command of the first gate ("" when it is an analyzer: go run ./cmd/soilint <pkgs>)
	want   string   // what the failing command prints
	also   string   // other gates observed to fire when the row was measured
}

// edit replaces the one occurrence of old in file (relative to the module
// root) by new.
type edit struct{ file, old, new string }

// apply returns the overlay of the row's seed: absolute file name → seeded
// source. An edit whose old text is missing or ambiguous means the code
// moved and the row must be re-seeded.
func (r matrixRow) apply(t *testing.T, root string) map[string][]byte {
	t.Helper()
	overlay := make(map[string][]byte)
	for _, e := range r.edits {
		name := filepath.Join(root, filepath.FromSlash(e.file))
		src, ok := overlay[name]
		if !ok {
			var err error
			if src, err = os.ReadFile(name); err != nil {
				t.Fatal(err)
			}
		}
		if n := bytes.Count(src, []byte(e.old)); n != 1 {
			t.Fatalf("seed text occurs %d times in %s, want once:\n%s", n, e.file, e.old)
		}
		overlay[name] = bytes.Replace(src, []byte(e.old), []byte(e.new), 1)
	}
	return overlay
}

// fork returns a loader over the same module that parses overlay in place
// of the files it names. It shares the file set, the type-checked standard
// library and every already-loaded package the overlay cannot reach (one
// that neither holds an overlaid file nor imports, transitively, one that
// does), so a row costs the re-check of the packages its seed touches.
func (l *Loader) fork(overlay map[string][]byte) *Loader {
	f := &Loader{Root: l.Root, Module: l.Module, Overlay: overlay, fset: l.fset, std: l.std,
		pkgs: make(map[string]*Package), loading: make(map[string]bool)}
	dirty := make(map[*Package]bool)
	var isDirty func(p *Package) bool
	isDirty = func(p *Package) bool {
		if d, ok := dirty[p]; ok {
			return d
		}
		d := false
		for name := range overlay {
			d = d || filepath.Dir(name) == p.Dir
		}
		for _, dep := range p.Deps {
			d = d || isDirty(dep)
		}
		dirty[p] = d
		return d
	}
	for path, p := range l.pkgs {
		if !isDirty(p) {
			f.pkgs[path] = p
		}
	}
	return f
}

// firing loads dirs under overlay and returns the sorted names of the
// analyzers with an active finding there, "typecheck" among them when a
// package no longer type-checks.
func firing(t *testing.T, overlay map[string][]byte, dirs []string) (names []string, diags []Diagnostic) {
	t.Helper()
	base := loaderFor(t)
	l := base.fork(overlay)
	set := make(map[string]bool)
	for _, dir := range dirs {
		pkg, err := l.LoadDir(filepath.Join(base.Root, filepath.FromSlash(dir)))
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", dir, err)
		}
		if len(pkg.TypeErrors) > 0 {
			set["typecheck"] = true
			t.Logf("typecheck: %v", pkg.TypeErrors[0])
		}
		active, _ := Run(pkg, All)
		for _, d := range active {
			set[d.Check] = true
		}
		diags = append(diags, active...)
	}
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, diags
}

// TestCatchMatrix is the static half of every row.
func TestCatchMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped with -short")
	}
	base := loaderFor(t)
	if _, err := base.LoadPatterns([]string{"./..."}); err != nil { // warm the shared cache once
		t.Fatal(err)
	}
	named := make(map[string]bool)
	for _, r := range catchMatrix {
		named[r.first] = true
		t.Run(r.name, func(t *testing.T) {
			got, diags := firing(t, r.apply(t, base.Root), r.pkgs)
			want := append([]string(nil), r.static...)
			sort.Strings(want)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("analyzers firing on the seed = %v, the row records %v", got, want)
				for _, d := range diags {
					t.Logf("  %s", d)
				}
			}
			switch {
			case isAnalyzer(r.first):
				if r.cmd != "" || !slices.Contains(r.static, r.first) {
					t.Errorf("first gate %q: an analyzer's row carries no command and lists it among the analyzers that fire", r.first)
				}
			case r.first == "none":
				if r.cmd != "" || len(r.static) != 0 {
					t.Errorf("a row nothing catches carries no command and no analyzer")
				}
			case slices.Contains([]string{"go build", "go vet", "test", "-race", "fuzz"}, r.first):
				if r.cmd == "" || r.want == "" {
					t.Errorf("first gate %q: the row must record the command and what it prints", r.first)
				}
			default:
				t.Errorf("unknown first gate %q", r.first)
			}
		})
	}
	// The matrix is the suite's membership rule.
	for _, a := range All {
		if !named[a.Name] {
			t.Errorf("analyzer %s is the first gate of no row: seed a defect only it catches, or delete it", a.Name)
		}
	}
}

func isAnalyzer(name string) bool {
	_, err := ByName(name)
	return err == nil && name != ""
}

// TestCatchMatrixDynamic re-runs, on each seeded tree, the command the row
// records for its first gate, and requires it to fail the way the row says.
// The seed reaches the go tool as a build overlay (GOFLAGS=-overlay=…), so
// the working tree is never written and nested go invocations see it too.
// It costs a compile and a test run per row; it runs when -run names it,
// which is what check.sh's matrix gate does.
func TestCatchMatrixDynamic(t *testing.T) {
	if !strings.Contains(flag.Lookup("test.run").Value.String(), "TestCatchMatrixDynamic") {
		t.Skip("compiles and tests one seeded tree per row (minutes); run it by name: go test ./internal/analysis -run TestCatchMatrixDynamic")
	}
	root := loaderFor(t).Root
	for _, r := range catchMatrix {
		if r.cmd == "" {
			continue
		}
		t.Run(r.name, func(t *testing.T) {
			t.Parallel() // most rows wait on a timeout or a leak gate, not on the CPU
			replace := make(map[string]string) // seeded file -> its stand-in
			dir := t.TempDir()
			for name, src := range r.apply(t, root) {
				tmp := filepath.Join(dir, fmt.Sprintf("%d_%s", len(replace), filepath.Base(name)))
				if err := os.WriteFile(tmp, src, 0o644); err != nil {
					t.Fatal(err)
				}
				replace[name] = tmp
			}
			overlay, err := json.Marshal(map[string]any{"Replace": replace})
			if err != nil {
				t.Fatal(err)
			}
			overlayFile := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			defer cancel()
			argv := strings.Fields(r.cmd)
			cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
			cmd.Dir = root
			cmd.Env = append(os.Environ(), "GOFLAGS=-overlay="+overlayFile)
			start := time.Now()
			out, err := cmd.CombinedOutput()
			t.Logf("%s: %v in %.1fs", r.cmd, err, time.Since(start).Seconds())
			if err == nil {
				t.Fatalf("%s passed on the seeded tree; the row says %s catches it", r.cmd, r.first)
			}
			if !strings.Contains(string(out), r.want) {
				t.Fatalf("%s failed, but not with %q:\n%s", r.cmd, r.want, tail(string(out), 40))
			}
		})
	}
}

// tail returns the last n lines of s.
func tail(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}
