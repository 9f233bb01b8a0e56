//go:build !amd64

package fft

// Off amd64 every stage, codelet and product runs its Go twin; these are the
// vector entry points of stockham_amd64.go, reporting that they did nothing.

func stageVec(*stage, []complex128, []complex128) bool { return false }

func dft8ColsVec(*[8][]complex128, []complex128, int, int) int { return 0 }

func (s *SixStep) twiddleTileVec([]complex128, []complex128, int) bool { return false }

func (s *SixStep) demodScatterVec([]complex128, []complex128, int, int) bool { return false }

func radix2DemodulateVec([]complex128, []complex128, complex128, []complex128) int { return 0 }
