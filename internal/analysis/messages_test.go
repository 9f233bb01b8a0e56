package analysis

import "testing"

// TestConcurrencyMessageFormats pins the exact diagnostic text of the four
// interprocedural analyzers on representative fixture findings. The golden
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
			dir: fixtureDir("goleak"), analyzer: GoLeak, line: 15,
			want: "goroutine may never exit: receive on 'unclosed' in leakyRecv (no close/ctx/timeout escape on some path)",
		},
		{
			dir: fixtureDir("goleak"), analyzer: GoLeak, line: 29,
			want: "goroutine may never exit: select with no escape case in leakySelect (no close/ctx/timeout escape on some path)",
		},
		{
			dir: fixtureDir("goleak"), analyzer: GoLeak, line: 44,
			want: "goroutine may never exit: receive on 'ch' in pump (no close/ctx/timeout escape on some path)",
		},
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
			dir: fixtureDir("lockorder"), analyzer: LockOrder, line: 15,
			want: "acquiring 'muB' while holding 'muA' completes a lock-order cycle",
		},
		{
			dir: fixtureDir("lockorder"), analyzer: LockOrder, line: 43,
			want: "call to 'guarded.bump' while holding 'guarded.mu' may re-acquire it (self-deadlock)",
		},
		{
			dir: fixtureDir("lockorder"), analyzer: LockOrder, line: 50,
			want: "second Lock of 'guarded.mu' while it may already be held (self-deadlock)",
		},
		{
			dir: fixtureDir("lockorder"), analyzer: LockOrder, line: 84,
			want: "call to 'wrapper.Close' while holding 'wrapper.mu' may re-acquire it (self-deadlock)",
		},
		{
			dir: fixtureDir("deadlineflow", "internal", "serve"), analyzer: DeadlineFlow, line: 25,
			want: "blocking read call to wire.ReadHeader with no read deadline on every path (entry Serve)",
		},
		{
			dir: fixtureDir("deadlineflow", "internal", "serve"), analyzer: DeadlineFlow, line: 34,
			want: "blocking write call to wire.WriteVector with no write deadline on every path (entry Serve)",
		},
		{
			dir: fixtureDir("deadlineflow", "internal", "serve"), analyzer: DeadlineFlow, line: 70,
			want: "blocking read call to mpi.Recv with no read deadline on every path (entry MpiPull)",
		},
		{
			dir: fixtureDir("poolflow"), analyzer: PoolFlow, line: 13,
			want: "pooled value 'bp' may not be returned to the pool on some path (missing Put or //soilint:pool transfer)",
		},
		{
			dir: fixtureDir("poolflow"), analyzer: PoolFlow, line: 28,
			want: "pooled value 'bp' may be returned to the pool twice (an earlier Put may reach this one)",
		},
		{
			dir: fixtureDir("poolflow"), analyzer: PoolFlow, line: 34,
			want: "'bp' was acquired from pool 'bufPool' but is returned to pool 'rowPool'",
		},
		{
			dir: fixtureDir("poolflow"), analyzer: PoolFlow, line: 41,
			want: "pooled value 'bp' may be used here after being returned to the pool",
		},
		{
			dir: fixtureDir("poolflow"), analyzer: PoolFlow, line: 46,
			want: "result of bufPool.Get() is not bound to a local variable; its return to the pool cannot be tracked (bind it or annotate //soilint:pool transfer)",
		},
		{
			dir: fixtureDir("poolflow"), analyzer: PoolFlow, line: 53,
			want: "'bp' is returned to the pool but was not acquired from one in this function (annotate //soilint:pool transfer if ownership was handed in)",
		},
		{
			dir: fixtureDir("poolflow"), analyzer: PoolFlow, line: 122,
			want: "malformed //soilint:pool directive: want 'transfer <reason>'",
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
		{
			dir: fixtureDir("wireconform", "internal", "wire"), analyzer: WireConform, line: 43,
			want: "switch over wire.Type does not handle TError and has no rejecting default (new constants fall through silently)",
		},
		{
			dir: fixtureDir("wireconform", "internal", "wire"), analyzer: WireConform, line: 56,
			want: "switch over wire error codes has an empty default: unknown values are silently ignored",
		},
		{
			dir: fixtureDir("wireconform", "internal", "wire"), analyzer: WireConform, line: 88,
			want: "ErrFor has no case for code CodeStale: it degrades to the default sentinel",
		},
		{
			dir: fixtureDir("wireconform", "internal", "serve"), analyzer: WireConform, line: 11,
			want: "request type TWork is not handled by any wire.Type switch in this package (stale server dispatch)",
		},
		{
			dir: fixtureDir("wireconform", "internal", "serve"), analyzer: WireConform, line: 21,
			want: "TReply response Header literal does not set ReqID (responses must echo the request id)",
		},
		{
			dir: fixtureDir("wireconform", "internal", "serve"), analyzer: WireConform, line: 26,
			want: "TError Header literal does not set Code (error responses must carry a wire code)",
		},
		{
			dir: fixtureDir("wireconform", "client"), analyzer: WireConform, line: 16,
			want: "response type TError is not handled by any wire.Type switch in this package (stale client demux)",
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
