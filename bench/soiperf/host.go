package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// hostFacts identify the machine a result set came from.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	LLCBytes   int64  `json:"llc_bytes"`
	Kernel     string `json:"kernel"`
}

func readHostFacts() hostFacts {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease") // absent off Linux: left empty
	return hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		LLCBytes:   llcBytes(),
		Kernel:     strings.TrimSpace(string(kernel)),
	}
}

// llcBytes returns cpu0's highest-level cache size from sysfs, 0 if unknown.
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*") // pattern is constant, cannot be malformed
	var best, bestLevel int64
	for _, d := range dirs {
		lv, err := os.ReadFile(filepath.Join(d, "level"))
		if err != nil {
			continue
		}
		level, err := strconv.ParseInt(strings.TrimSpace(string(lv)), 10, 64)
		if err != nil {
			continue
		}
		sz, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(sz))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			continue
		}
		if level > bestLevel {
			best, bestLevel = v*mult, level
		}
	}
	return best
}

// hostBandwidth measures STREAM-style copy (a = b) and triad (a = b + s*c)
// over float64 arrays of `floats` elements each with `workers` goroutines,
// and returns computed GB/s (2 and 3 arrays of traffic; write-allocate is
// not counted). Best of reps, as STREAM reports.
func hostBandwidth(floats, workers, reps int) (copyGBps, triadGBps float64) {
	a := make([]float64, floats)
	b := make([]float64, floats)
	c := make([]float64, floats)
	for i := range b {
		b[i], c[i] = float64(i), 0.5
	}
	each := func(body func(lo, hi int)) time.Duration {
		t0 := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*floats/workers, (w+1)*floats/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				body(lo, hi)
			}()
		}
		wg.Wait()
		return time.Since(t0)
	}
	bestCopy, bestTriad := time.Duration(1<<62), time.Duration(1<<62)
	for r := 0; r < reps; r++ {
		bestCopy = min(bestCopy, each(func(lo, hi int) { copy(a[lo:hi], b[lo:hi]) }))
		bestTriad = min(bestTriad, each(func(lo, hi int) {
			aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
			for i := range aa {
				aa[i] = bb[i] + 3*cc[i]
			}
		}))
	}
	bytes := float64(floats) * 8
	return 2 * bytes / bestCopy.Seconds() / 1e9, 3 * bytes / bestTriad.Seconds() / 1e9
}
