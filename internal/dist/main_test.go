package dist

import (
	"testing"

	"soifft/internal/testutil"
)

// TestMain pins that a transform reaps what it starts: the pipelined
// exchange goroutine of SOI.Forward must have exited by the time the suite
// passes, on the failure paths the fault tests drive as much as on success.
func TestMain(m *testing.M) { testutil.CheckMain(m) }
