package cpu

func probe() (avx2, fma, avx512f bool)
