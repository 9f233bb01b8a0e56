//go:build !amd64

package cpu

func probe() (avx2, fma, avx512f bool) { return false, false, false }
