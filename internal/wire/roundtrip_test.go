package wire

import (
	"errors"
	"testing"
)

// TestCodeErrUnknowns pins the degradation contract: unknown codes rebuild
// as ErrInternal-based errors (never panic), and errors outside the
// sentinel family map to CodeInternal.
func TestCodeErrUnknowns(t *testing.T) {
	for _, code := range []uint32{0, 6, 99, ^uint32(0)} {
		rebuilt := ErrFor(code, "mystery")
		if rebuilt == nil || !errors.Is(rebuilt, ErrInternal) {
			t.Errorf("ErrFor(%d, ...) = %v, want an ErrInternal-based error", code, rebuilt)
		}
		if got := CodeFor(rebuilt); got != CodeInternal {
			t.Errorf("CodeFor(ErrFor(%d, ...)) = %d, want CodeInternal", code, got)
		}
	}
	if got := CodeFor(errors.New("opaque")); got != CodeInternal {
		t.Errorf("CodeFor(opaque) = %d, want CodeInternal", got)
	}
	if got := CodeFor(nil); got != CodeInternal {
		t.Errorf("CodeFor(nil) = %d, want CodeInternal", got)
	}
}
