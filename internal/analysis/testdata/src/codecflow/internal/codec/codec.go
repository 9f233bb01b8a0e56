// Package codec is the audited fixture for codecflow: switches over the
// fixture-local ID enum must be exhaustive or rejecting.
package codec

import "errors"

// ID mirrors the real wire codec identifier.
type ID byte

const (
	Identity   ID = 0
	DeltaPlane ID = 1
	Quant      ID = 2
)

var errUnknown = errors.New("unknown codec")

// For covers every declared constant: clean.
func For(id ID) string {
	switch id {
	case Identity:
		return "identity"
	case DeltaPlane:
		return "deltaplane"
	case Quant:
		return "quant"
	}
	return "unknown"
}

// Stale misses Quant with no default: a new codec falls through silently.
func Stale(id ID) string {
	switch id { // finding: does not handle Quant
	case Identity:
		return "identity"
	case DeltaPlane:
		return "deltaplane"
	}
	return ""
}

// Swallow drops unknown codecs in an empty default.
func Swallow(id ID) {
	switch id { // finding: empty default
	case Identity:
	case DeltaPlane:
	case Quant:
	default:
	}
}

// Reject handles unknowns explicitly: clean despite the missing cases.
func Reject(id ID) error {
	switch id {
	case Identity:
		return nil
	default:
		return errUnknown
	}
}

// Suppressed documents a reviewed stale switch.
func Suppressed(id ID) bool {
	switch id { //soilint:ignore codecflow fixture: reviewed
	case Identity:
		return true
	}
	return false
}
