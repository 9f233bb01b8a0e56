package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// affinityWords holds a CPU mask of 1024 processors.
const affinityWords = 16

func affinity() (mask [affinityWords]uint64, n int, err error) {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
	if errno != 0 {
		return mask, 0, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	for _, w := range mask {
		n += bits.OnesCount64(w)
	}
	return mask, n, nil
}

// pinToOneProcessor makes the whole measurement, the benchmark process and
// every process it starts, run on one processor: it binds the calling thread
// to the lowest processor it may use and re-executes the program, so that
// the Go runtime starts with one processor (GOMAXPROCS 1) and children
// inherit the binding. It returns nil without re-executing when the process
// is already bound to a single processor.
//
// Why: the reference hosts give their guests two virtual processors that
// share one physical core for minutes at a time and have a core each at
// other times. A figure that needs both at once (two workers, two ranks,
// client and server) therefore moves by up to 1.6x between runs of the same
// code, while one busy processor holds its speed within a few per cent.
// Every workload is measured on one processor so that a change to the code,
// not the neighbours, is what moves its numbers; what is lost is the
// ability to see a change in parallel scaling.
func pinToOneProcessor() error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	mask, n, err := affinity()
	if err != nil || n == 1 {
		return err
	}
	var one [affinityWords]uint64
	for i, w := range mask {
		if w != 0 {
			one[i] = w & -w
			break
		}
	}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one[0]))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(self, os.Args, os.Environ())
}
