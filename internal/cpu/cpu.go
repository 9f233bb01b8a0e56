// Package cpu reports the processor features the vector kernels of
// internal/conv and internal/fft are chosen by. It is probed once, at
// package initialisation; the kernels' packages read it into their own
// unexported switches, which only their tests assign.
package cpu

// AVX2 reports whether the processor has AVX2, FMA whether it has the
// 256-bit fused multiply-add instructions (FMA3), each only where the
// operating system also saves the YMM registers across context switches.
// AVX512F reports whether it has the AVX-512 foundation instructions, the
// only AVX-512 subset internal/conv's 512-bit kernel encodes, and the
// operating system saves the opmask registers and all 32 ZMM registers.
// All three are false on every target without an assembler probe.
var AVX2, FMA, AVX512F = probe()
