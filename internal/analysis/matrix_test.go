package analysis

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// The catch matrix is the repository's record of what each of its gates is
// for, written down as an experiment: each row seeds one defect into the
// real module — a historical bug re-introduced by reverting its fix, or a
// mutant of real code in a failure class — and records which gate catches
// it first (DESIGN.md §7 has the table and the ranking).
//
// Gates, cheapest to own first. A row's `first` is the lowest-ranked gate
// that fires on its seed:
//
//	go build    the compiler (a package stops type-checking)
//	go vet      the stock vet passes
//	test        a test: an oracle, a golden digest, an allocation budget,
//	            a hostile-input table, the testutil goroutine-leak gate, or
//	            a within-run timing ratio that runs when named
//	-race       check.sh's race gate (tier-2 only, schedule-dependent)
//	fuzz        check.sh's fuzz smoke (tier-2 only, randomized)
//
// TestCatchMatrix checks the rows themselves in tier-1: every seed still
// applies and still parses, and every row records its gate's command and
// what the command prints on the seed. TestCatchMatrixDynamic runs those
// commands on the seeded trees; it compiles and runs tests, so it runs only
// when asked for by name (scripts/check.sh:
// go test ./internal/analysis -run TestCatchMatrixDynamic).
type matrixRow struct {
	name   string // row id, also the subtest name
	origin string // "PR n: …" for a historical defect, "class: <class>" for a mutant
	edits  []edit // the seed
	first  string // first gate to fire, in the ranking above
	cmd    string // the exact command of the first gate
	want   string // what the failing command prints
	also   string // other gates observed to fire when the row was measured
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

// moduleRoot returns the directory holding go.mod, walking up from the
// test's working directory.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test's directory")
		}
		dir = parent
	}
}

// TestCatchMatrix checks every row without running its gate: the seed
// applies exactly once, each seeded Go file still parses (a row is a
// behaviour the gate must see, not a syntax error), and the row names a
// gate of the ranking with the command and output that show it firing.
func TestCatchMatrix(t *testing.T) {
	root := moduleRoot(t)
	gates := []string{"go build", "go vet", "test", "-race", "fuzz"}
	for _, r := range catchMatrix {
		t.Run(r.name, func(t *testing.T) {
			for name, src := range r.apply(t, root) {
				if strings.HasSuffix(name, ".go") {
					if _, err := parser.ParseFile(token.NewFileSet(), name, src, parser.AllErrors); err != nil {
						t.Errorf("seeded %s does not parse: %v", name, err)
					}
				}
			}
			if !slices.Contains(gates, r.first) {
				t.Errorf("first gate %q is none of %q", r.first, gates)
			}
			if r.cmd == "" || r.want == "" {
				t.Errorf("first gate %q: the row must record the command and what it prints", r.first)
			}
		})
	}
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
	root := moduleRoot(t)
	for _, r := range catchMatrix {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()                       // most rows wait on a timeout or a leak gate, not on the CPU
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
