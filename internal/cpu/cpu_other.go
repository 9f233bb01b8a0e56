//go:build !amd64

package cpu

func probe() (avx2, fma bool) { return false, false }
