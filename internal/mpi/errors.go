package mpi

import (
	"errors"
	"fmt"
)

// The typed failure vocabulary of the transport layer. Every way a
// communicator operation can fail without the peer's cooperation — the peer
// died, the wire broke, the deadline passed, the world was torn down — maps
// onto exactly one of these sentinels, wrapped in a *TransportError that
// names the operation and the peer. The distributed algorithms above
// (collectives, dist.SOI, dist.CT) propagate them unchanged, so a
// caller at any layer can classify a failure with errors.Is/errors.As
// instead of string matching, and — critically for the no-hang invariant —
// every blocked operation is guaranteed to resolve to one of them within
// the configured deadline.

// ErrTimeout reports that an operation's deadline expired before it could
// complete. See World.SetOpTimeout, TCPOptions.OpTimeout and
// DeadlineRecver.RecvDeadline.
var ErrTimeout = errors.New("mpi: operation timed out")

// ErrAborted reports that the world was torn down mid-operation by Abort —
// the crash-propagation path: when one rank of an SPMD program fails, the
// others' in-flight operations resolve to ErrAborted instead of blocking
// until their own deadlines (or forever).
var ErrAborted = errors.New("mpi: world aborted")

// TransportError is the typed failure of one point-to-point operation: the
// operation that failed, the peer it involved, and the tag (where the
// operation has one). Err carries the cause and joins the sentinel
// vocabulary — errors.Is(err, ErrClosed), errors.Is(err, ErrTimeout) and
// errors.Is(err, ErrAborted) all see through it.
type TransportError struct {
	Op   string // "send", "recv", "dial" or "accept"
	Peer int    // peer rank; -1 for an accept that has not read the peer's hello
	Tag  int    // message tag; -1 when the operation has no tag
	Err  error  // cause; wraps ErrClosed / ErrTimeout / ErrAborted
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("mpi: %s (peer %d, tag %d): %v", e.Op, e.Peer, e.Tag, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// SizeError is the cause of a receive into a caller-owned buffer (the
// ...Into collectives) whose payload did not have the buffer's length: the
// ranks disagree on the geometry of the exchange. It arrives wrapped in the
// *TransportError naming the peer and tag; nothing was written to the buffer.
type SizeError struct {
	Got  int // elements in the received payload
	Want int // elements the receive buffer holds
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("payload of %d elements for a receive buffer of %d", e.Got, e.Want)
}
