//go:build !amd64

package conv

// kernels names the convolution kernels the host can execute: off amd64 the
// portable one, always in use.
func kernels() []string { return []string{"portable"} }

func kernelInUse() string { return "portable" }

func useKernel(string) (restore func()) { return func() {} }
