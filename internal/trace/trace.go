// Package trace provides the per-phase time accounting used to produce the
// paper's execution-time breakdowns (Fig. 9: Local FFT / Convolution /
// Exposed MPI / etc.). A Breakdown accumulates wall-clock durations per
// named phase; the phase names are the ones internal/perfmodel prices, so
// measured and modelled breakdowns line up.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Canonical phase names matching Fig. 9 of the paper.
const (
	PhaseLocalFFT   = "Local FFT"
	PhaseConv       = "Convolution"
	PhaseExposedMPI = "Exposed MPI"
	PhaseEtc        = "etc."
)

// Serving-layer phases: the per-request lifecycle accounting of soifftd
// (internal/serve). Queue wait is time between admission and being drained
// into an executed batch; plan is plan-cache lookup (including the design on
// a miss); execute is kernel time; serialize is response framing and socket
// writes.
const (
	PhaseQueueWait = "Queue wait"
	PhasePlan      = "Plan"
	PhaseExecute   = "Execute"
	PhaseSerialize = "Serialize"
)

// Breakdown accumulates durations per phase. Safe for concurrent use.
type Breakdown struct {
	mu     sync.Mutex
	phases map[string]time.Duration
	order  []string
}

// NewBreakdown returns an empty breakdown.
func NewBreakdown() *Breakdown {
	return &Breakdown{phases: make(map[string]time.Duration)}
}

// Add accumulates d into the named phase.
func (b *Breakdown) Add(phase string, d time.Duration) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.phases[phase]; !ok {
		b.order = append(b.order, phase)
	}
	b.phases[phase] += d
}

// Timer starts timing a phase; the returned func stops it and accumulates.
// Usage: defer b.Timer(trace.PhaseConv)().
func (b *Breakdown) Timer(phase string) func() {
	if b == nil {
		return func() {}
	}
	start := time.Now()
	return func() { b.Add(phase, time.Since(start)) }
}

// Get returns the accumulated duration of a phase.
func (b *Breakdown) Get(phase string) time.Duration {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.phases[phase]
}

// Total returns the sum over all phases.
func (b *Breakdown) Total() time.Duration {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var t time.Duration
	for _, d := range b.phases {
		t += d
	}
	return t
}

// Phases returns the phase names in first-recorded order.
func (b *Breakdown) Phases() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.order...)
}

// Merge adds every phase of other into b.
func (b *Breakdown) Merge(other *Breakdown) {
	if other == nil {
		return
	}
	other.mu.Lock()
	phases := append([]string(nil), other.order...)
	vals := make([]time.Duration, len(phases))
	for i, p := range phases {
		vals[i] = other.phases[p]
	}
	other.mu.Unlock()
	for i, p := range phases {
		b.Add(p, vals[i])
	}
}

// Scale multiplies every phase by k (used to average over ranks or runs).
func (b *Breakdown) Scale(k float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for p, d := range b.phases {
		b.phases[p] = time.Duration(float64(d) * k)
	}
}

// String renders "phase: dur" pairs sorted by descending duration.
func (b *Breakdown) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	type kv struct {
		k string
		v time.Duration
	}
	var rows []kv
	for k, v := range b.phases {
		rows = append(rows, kv{k, v})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].v > rows[j].v })
	var sb strings.Builder
	for i, r := range rows {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s: %v", r.k, r.v)
	}
	return sb.String()
}
