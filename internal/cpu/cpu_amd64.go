package cpu

func hasAVX2() bool
