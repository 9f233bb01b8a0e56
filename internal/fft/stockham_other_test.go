//go:build !amd64

package fft

// kernels names the stage kernels the host can execute: off amd64 the
// portable Go twins, always in use.
func kernels() []string { return []string{"portable"} }

func useKernel(string) (restore func()) { return func() {} }

func kernelInUse() string { return "portable" }
