package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"soifft/internal/analysis"
)

// TestTimingViolations pins the three violation shapes of the hard timing
// gate: over budget, selected-but-unbudgeted, and stale budget keys.
func TestTimingViolations(t *testing.T) {
	fast := &analysis.Analyzer{Name: "fast"}
	slow := &analysis.Analyzer{Name: "slow"}
	known := []*analysis.Analyzer{fast, slow}
	elapsed := map[string]time.Duration{
		"fast": 5 * time.Millisecond,
		"slow": 250 * time.Millisecond,
	}

	if v := timingViolations(map[string]int64{"fast": 100, "slow": 300}, known, known, elapsed); len(v) != 0 {
		t.Errorf("clean budget produced violations: %v", v)
	}

	v := timingViolations(map[string]int64{"fast": 100, "slow": 200}, known, known, elapsed)
	if len(v) != 1 || !strings.Contains(v[0], "slow took 250ms") || !strings.Contains(v[0], "200ms budget") {
		t.Errorf("over-budget check: %v", v)
	}

	v = timingViolations(map[string]int64{"fast": 100}, known, known, elapsed)
	if len(v) != 1 || !strings.Contains(v[0], "slow has no budget entry") {
		t.Errorf("missing entry: %v", v)
	}

	v = timingViolations(map[string]int64{"fast": 100, "slow": 300, "ghost": 50}, known, known, elapsed)
	if len(v) != 1 || !strings.Contains(v[0], `"ghost" names no known check`) {
		t.Errorf("stale key: %v", v)
	}

	// A -checks subset must not treat the other analyzers' entries as
	// stale: unknown means unknown to the whole suite, not unselected.
	v = timingViolations(map[string]int64{"fast": 100, "slow": 300}, []*analysis.Analyzer{fast}, known, elapsed)
	if len(v) != 0 {
		t.Errorf("subset run flagged sibling budget entries: %v", v)
	}

	// Violations are stable-ordered: selected-order first, stale keys
	// sorted after.
	v = timingViolations(map[string]int64{"slow": 200, "zz": 1, "aa": 1}, known, known, elapsed)
	want := []string{"fast has no budget entry", "slow took 250ms", `"aa"`, `"zz"`}
	if len(v) != 4 {
		t.Fatalf("combined violations: %v", v)
	}
	for i, w := range want {
		if !strings.Contains(v[i], w) {
			t.Errorf("violation %d = %q, want mention of %s", i, v[i], w)
		}
	}
}

func TestLoadTimingBudget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "budget.json")
	if err := os.WriteFile(path, []byte(`{"closeflow": 1000, "chanlife": 500}`), 0o644); err != nil {
		t.Fatal(err)
	}
	budget, err := loadTimingBudget(path)
	if err != nil {
		t.Fatal(err)
	}
	if budget["closeflow"] != 1000 || budget["chanlife"] != 500 {
		t.Errorf("parsed budget %v", budget)
	}
	if _, err := loadTimingBudget(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	if err := os.WriteFile(path, []byte(`{"closeflow": "fast"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadTimingBudget(path); err == nil {
		t.Error("non-numeric budget accepted")
	}
}

// TestCheckedInBudgetCoversSuite: the repo-root timing_budget.json (the
// CI contract passed via -timing-budget-file in check.sh) must budget
// exactly the current analyzer suite — a new analyzer must land with a
// budget entry, a removed one must take its entry along.
func TestCheckedInBudgetCoversSuite(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "timing_budget.json"))
	if err != nil {
		t.Fatal(err)
	}
	budget := make(map[string]int64)
	if err := json.Unmarshal(data, &budget); err != nil {
		t.Fatal(err)
	}
	// Zero elapsed: any violation is structural (missing/stale entries),
	// not a timing measurement.
	v := timingViolations(budget, analysis.All, analysis.All, map[string]time.Duration{})
	if len(v) != 0 {
		t.Errorf("checked-in timing_budget.json out of sync with the suite: %v", v)
	}
	for name, ms := range budget {
		if ms <= 0 {
			t.Errorf("budget entry %s is %dms; budgets must be positive", name, ms)
		}
	}
}
