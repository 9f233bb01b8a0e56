//go:build !amd64

package buildtags

// kernelName is every other target's half, selected by its build line.
func kernelName() string { return "portable" }
