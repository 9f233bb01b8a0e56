package cpu

func probe() (avx2, fma bool)
