// Package buildtags mirrors internal/conv's dot_amd64.go / dot_other.go
// pair: exactly one of the two kernel files belongs to any one build, and a
// loader that takes both type-checks a redeclaration.
package buildtags

// Kernel reports which half the build selected.
func Kernel() string { return kernelName() }
