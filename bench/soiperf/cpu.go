package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// selfCPU returns the user+system CPU time this process has consumed.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times. It
// is 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// parseStatCPU extracts utime+stime from the text of /proc/<pid>/stat. The
// command name (field 2) may contain spaces and parentheses, so fields are
// counted from the last ')'.
func parseStatCPU(stat string) (time.Duration, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(stat[end+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want >= 13", len(f))
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// procCPU returns the CPU time another live process has consumed: the sum
// of its threads' on-CPU nanoseconds from /proc/<pid>/task/*/schedstat, or,
// on a kernel without scheduler statistics, utime+stime from
// /proc/<pid>/stat, whose 10 ms ticks are too coarse for a sub-window of a
// low-rate workload (a few dozen ticks).
func procCPU(pid int) (time.Duration, error) {
	if d, ok := schedstatCPU(pid); ok {
		return d, nil
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

func schedstatCPU(pid int) (time.Duration, bool) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, false
	}
	var total int64
	for _, t := range tasks {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if err != nil {
			if os.IsNotExist(err) && len(tasks) > 1 {
				continue // the thread exited between the listing and the read
			}
			return 0, false
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, false
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, false
		}
		total += ns
	}
	return time.Duration(total), total > 0
}

// parseStatusKB extracts a "Key:   123 kB" value from /proc/<pid>/status text.
func parseStatusKB(status, key string) (int64, bool) {
	for _, ln := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(ln, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			return 0, false
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		return v, err == nil
	}
	return 0, false
}

// procPeakRSSMB returns a live process's peak resident set (VmHWM) in MB.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, ok := parseStatusKB(string(b), "VmHWM")
	if !ok {
		return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
	}
	return float64(kb) / 1024, nil
}
