package testutil

import (
	"os"
	"strings"
	"testing"
	"time"
)

func TestLeakCheckFlagsBlockedGoroutine(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{})
	go leakyWorker(started, block)
	<-started
	err := LeakCheck(100 * time.Millisecond)
	if err == nil {
		close(block)
		t.Fatal("LeakCheck missed a blocked repository goroutine")
	}
	if !strings.Contains(err.Error(), "leakyWorker") {
		t.Errorf("leak report does not name the culprit:\n%v", err)
	}
	close(block)
	if err := LeakCheck(2 * time.Second); err != nil {
		t.Fatalf("goroutine exited but LeakCheck still reports: %v", err)
	}
}

// leakyWorker is the deliberately-stranded goroutine; a named function so
// the leak report provably names repository code.
func leakyWorker(started chan<- struct{}, block <-chan struct{}) {
	close(started)
	<-block
}

func TestFDLeakCheckFlagsOpenPipe(t *testing.T) {
	before := openFiles()
	if before == nil {
		t.Skip("no /proc/self/fd on this system")
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	w.Close() // one end stays open: the leak
	err = fdLeakCheck(before, 100*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "pipe:") {
		t.Fatalf("fdLeakCheck missed an open pipe end: %v", err)
	}
	r.Close()
	if err := fdLeakCheck(before, 2*time.Second); err != nil {
		t.Fatalf("pipe closed but fdLeakCheck still reports: %v", err)
	}
}

func TestLeakCheckCleanByDefault(t *testing.T) {
	if err := LeakCheck(2 * time.Second); err != nil {
		t.Fatalf("clean state reported as leak: %v", err)
	}
}

func TestMain(m *testing.M) { CheckMain(m) }
