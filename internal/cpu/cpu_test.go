package cpu

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestProbeMatchesProcCPUInfo compares the probed bits with the flags Linux
// reports for the same processor, so that a wrong CPUID bit fails here
// instead of silently choosing a kernel. The kernel clears avx2 and fma there
// when it does not save the YMM state, and avx512f when it does not save the
// opmask and ZMM state, as the probe's XGETBV checks do.
func TestProbeMatchesProcCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("the probe and /proc/cpuinfo are compared on linux/amd64 only")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot read /proc/cpuinfo: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(list)
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	for _, c := range []struct {
		flag  string
		probe bool
	}{{"avx2", AVX2}, {"fma", FMA}, {"avx512f", AVX512F}} {
		if want := slices.Contains(flags, c.flag); c.probe != want {
			t.Errorf("probe says %s = %v, /proc/cpuinfo says %v", c.flag, c.probe, want)
		}
		t.Logf("%s: %v", c.flag, c.probe)
	}
}
