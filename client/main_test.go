package client

import (
	"testing"

	"soifft/internal/testutil"
)

// TestMain pins that the client reaps what it starts: Close must leave no
// demultiplexer goroutine and no connection behind, on the paths where a
// call was cancelled or the connection died mid-call as much as on success.
func TestMain(m *testing.M) { testutil.CheckMain(m) }
