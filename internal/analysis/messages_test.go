package analysis

import "testing"

// TestConcurrencyMessageFormats pins the exact diagnostic text of the
// channel and closer analyzers on representative fixture findings. The golden
// line sets in analyzers_test.go check placement; this test checks wording,
// which scripts and editors match against.
func TestConcurrencyMessageFormats(t *testing.T) {
	tests := []struct {
		dir      string
		analyzer *Analyzer
		line     int
		want     string
	}{
		{
			dir: fixtureDir("chanlife"), analyzer: ChanLife, line: 13,
			want: "send on 'ch' may follow a close of it on some path",
		},
		{
			dir: fixtureDir("chanlife"), analyzer: ChanLife, line: 27,
			want: "channel 'ch' may be closed twice (the close is reachable from itself around a loop)",
		},
		{
			dir: fixtureDir("chanlife"), analyzer: ChanLife, line: 57,
			want: "send on 'box.tokens' without holding 'mu' on some path (//soilint:chan token contract)",
		},
		{
			dir: fixtureDir("chanlife"), analyzer: ChanLife, line: 74,
			want: "channel 'box.done' is closed outside its owner(s) closeDone (//soilint:chan owner contract)",
		},
		{
			dir: fixtureDir("closeflow"), analyzer: CloseFlow, line: 14,
			want: "'c' (from net.Dial) may not be closed on some path that uses it (missing Close or ownership transfer)",
		},
		{
			dir: fixtureDir("closeflow"), analyzer: CloseFlow, line: 63,
			want: "'c' (from dialWrapper) may not be closed on some path that uses it (missing Close or ownership transfer)",
		},
		{
			dir: fixtureDir("closeflow"), analyzer: CloseFlow, line: 120,
			want: "result of net.Dial() is discarded; closeflow cannot verify it is ever closed",
		},
	}
	diags := map[string][]Diagnostic{}
	for _, tt := range tests {
		if _, ok := diags[tt.dir]; !ok {
			pkg, err := loaderFor(t).LoadDir(tt.dir)
			if err != nil {
				t.Fatalf("LoadDir(%s): %v", tt.dir, err)
			}
			active, _ := Run(pkg, All)
			diags[tt.dir] = active
		}
		found := false
		for _, d := range diags[tt.dir] {
			if d.Check == tt.analyzer.Name && d.Line == tt.line {
				found = true
				if d.Message != tt.want {
					t.Errorf("%s:%d message =\n  %q\nwant\n  %q", tt.dir, tt.line, d.Message, tt.want)
				}
			}
		}
		if !found {
			t.Errorf("no %s finding at %s:%d", tt.analyzer.Name, tt.dir, tt.line)
		}
	}
}
