// Package testutil holds stdlib-only test support shared across packages.
//
// Its centerpiece is the leak check: the concurrent layers of this
// repository (the MPI transports' readLoops, the serving layer's worker
// pool and per-connection reader/writer pairs, the client's demultiplexer,
// the SOI pipeline's exchange goroutines) all promise to reap their
// goroutines and close their connections on Close, drain, or crash
// propagation. CheckMain pins that promise in each package's TestMain:
// after the tests pass, no goroutine running repository code may remain,
// and no descriptor may be open that was not open before them.
package testutil

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// modulePrefix identifies stacks that run this repository's code. A leaked
// goroutine necessarily has a repo frame (everything here is started by
// repo code); goroutines belonging to the test harness, the runtime, and
// the race detector never do.
const modulePrefix = "soifft/"

// LeakCheck polls until no goroutine outside the calling one runs
// repository code, or the deadline passes — then returns an error listing
// the stragglers' stacks. Goroutines legitimately exit asynchronously
// after Close (a TCP readLoop unblocks only when its connection tears
// down), so a grace window is part of the contract, not slack.
func LeakCheck(deadline time.Duration) error {
	var leaked []string
	for end := time.Now().Add(deadline); ; {
		leaked = repoGoroutines()
		if len(leaked) == 0 {
			return nil
		}
		if !time.Now().Before(end) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("%d goroutine(s) running repository code leaked:\n\n%s",
		len(leaked), strings.Join(leaked, "\n\n"))
}

// repoGoroutines returns the stacks of all goroutines (other than the
// calling one) with a repository frame.
func repoGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	// runtime.Stack(all=true) renders the calling goroutine first, then
	// every other, as blank-line-separated blocks.
	blocks := bytes.Split(buf, []byte("\n\n"))
	var leaked []string
	for _, b := range blocks[1:] {
		if blockRunsRepoCode(string(b)) {
			leaked = append(leaked, string(b))
		}
	}
	return leaked
}

// blockRunsRepoCode reports whether a goroutine stack holds a repository
// frame other than the leak-check harness itself (TestMain/CheckMain live
// on the main goroutine, which from a test's point of view is "another"
// goroutine blocked in testing.Run for the whole test).
func blockRunsRepoCode(block string) bool {
	for _, line := range strings.Split(block, "\n") {
		if !strings.Contains(line, modulePrefix) {
			continue
		}
		if strings.Contains(line, modulePrefix+"internal/testutil.CheckMain") ||
			strings.Contains(line, ".TestMain(") {
			continue
		}
		return true
	}
	return false
}

// openFiles returns the process's open descriptors as descriptor number →
// what it refers to ("socket:[123]", "pipe:[456]", a path), or nil where
// /proc/self/fd does not exist.
func openFiles() map[string]string {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return nil
	}
	open := make(map[string]string, len(ents))
	for _, e := range ents {
		// The directory's own descriptor is closed by now: Readlink fails.
		if target, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil {
			open[e.Name()] = target
		}
	}
	return open
}

// fdLeakCheck polls until every descriptor open now was open, with the
// same target, in before (an openFiles snapshot), or the deadline passes
// — then returns an error listing the newcomers. The runtime's network
// poller opens its epoll and eventfd descriptors on first use and keeps
// them; they are not leaks. With no /proc/self/fd (before is nil) there is
// nothing to compare and the check passes.
func fdLeakCheck(before map[string]string, deadline time.Duration) error {
	if before == nil {
		return nil
	}
	var leaked []string
	for end := time.Now().Add(deadline); ; {
		leaked = leaked[:0]
		for fd, target := range openFiles() {
			if before[fd] != target && target != "anon_inode:[eventpoll]" && target != "anon_inode:[eventfd]" {
				leaked = append(leaked, fd+" -> "+target)
			}
		}
		if len(leaked) == 0 {
			return nil
		}
		if !time.Now().Before(end) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	sort.Strings(leaked)
	return fmt.Errorf("%d descriptor(s) leaked: %s", len(leaked), strings.Join(leaked, ", "))
}

// CheckMain is a TestMain body with the leak gate attached: it runs the
// package's tests and, when they pass, fails the binary if goroutines
// running repository code survive the run or descriptors opened during it
// are still open. Usage:
//
//	func TestMain(m *testing.M) { testutil.CheckMain(m) }
//
// The check is skipped when the tests already failed (a failed test may
// legitimately strand goroutines — e.g. a watchdog-detected hang) so the
// real failure stays the loudest signal.
func CheckMain(m interface{ Run() int }) {
	before := openFiles()
	code := m.Run()
	if code == 0 {
		if err := LeakCheck(5 * time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "testutil: goroutine leak after passing tests: %v\n", err)
			code = 1
		}
	}
	if code == 0 {
		if err := fdLeakCheck(before, 5*time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "testutil: descriptor leak after passing tests: %v\n", err)
			code = 1
		}
	}
	os.Exit(code)
}
