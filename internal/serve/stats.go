package serve

import (
	"fmt"
	"strings"
	"sync/atomic"

	"soifft/internal/codec"
	"soifft/internal/trace"
)

// serverStats holds the server's monotonic counters. All fields count
// transforms (a TBatch frame of count k moves each counter by k), except
// batches, statsReqs and the connection and response counters.
type serverStats struct {
	accepted          atomic.Int64 // admitted past geometry validation
	completed         atomic.Int64 // executed successfully
	shedOverload      atomic.Int64 // rejected by admission control
	shedDeadline      atomic.Int64 // expired before execution
	badRequest        atomic.Int64 // rejected frames (geometry, alg, limits)
	statsReqs         atomic.Int64 // TStats frames served
	batches           atomic.Int64 // executed batches
	batchedTransforms atomic.Int64 // transforms summed over executed batches
	maxBatch          atomic.Int64 // widest executed batch
	connsTotal        atomic.Int64 // connections accepted over the lifetime
	// Result frames answering a request under a compressing codec, by how
	// the payload went out: encoded, or raw because its first block did
	// not pay (wire.WriteResultCodec).
	responsesEncoded atomic.Int64
	responsesRaw     atomic.Int64
}

// countResponse counts one result frame written under request codec c.
func (st *serverStats) countResponse(c codec.Codec, encoded bool) {
	switch {
	case encoded:
		st.responsesEncoded.Add(1)
	case c != nil && c.ID() != codec.Identity:
		st.responsesRaw.Add(1)
	}
}

// Snapshot is a point-in-time view of the server's counters, phase times
// and cache statistics — the parsed form of the TStats frame.
type Snapshot struct {
	Accepted          int64
	Completed         int64
	ShedOverload      int64
	ShedDeadline      int64
	BadRequest        int64
	StatsRequests     int64
	Batches           int64
	BatchedTransforms int64
	MaxBatch          int64
	ConnsTotal        int64
	ResponsesEncoded  int64
	ResponsesRaw      int64
	InFlight          int64
	PlanCache         CacheStats
	PhaseSeconds      map[string]float64
}

// MeanBatch returns the mean executed batch width (0 before any batch).
func (s Snapshot) MeanBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.BatchedTransforms) / float64(s.Batches)
}

// Snapshot captures the current statistics.
func (s *Server) Snapshot() Snapshot {
	snap := Snapshot{
		Accepted:          s.stats.accepted.Load(),
		Completed:         s.stats.completed.Load(),
		ShedOverload:      s.stats.shedOverload.Load(),
		ShedDeadline:      s.stats.shedDeadline.Load(),
		BadRequest:        s.stats.badRequest.Load(),
		StatsRequests:     s.stats.statsReqs.Load(),
		Batches:           s.stats.batches.Load(),
		BatchedTransforms: s.stats.batchedTransforms.Load(),
		MaxBatch:          s.stats.maxBatch.Load(),
		ConnsTotal:        s.stats.connsTotal.Load(),
		ResponsesEncoded:  s.stats.responsesEncoded.Load(),
		ResponsesRaw:      s.stats.responsesRaw.Load(),
		InFlight:          int64(s.sched.InFlight()),
		PlanCache:         s.soiPlans.Stats(),
		PhaseSeconds:      make(map[string]float64, 4),
	}
	for _, ph := range []string{trace.PhaseQueueWait, trace.PhasePlan, trace.PhaseExecute, trace.PhaseSerialize} {
		snap.PhaseSeconds[ph] = s.breakdown.Get(ph).Seconds()
	}
	return snap
}

// phaseMetricName maps a trace phase to its metrics identifier.
func phaseMetricName(phase string) string {
	return "soifftd_phase_" + strings.ReplaceAll(strings.ToLower(strings.TrimSuffix(phase, ".")), " ", "_") + "_seconds"
}

// MetricsText renders the statistics as "name value" lines — the payload of
// the wire Stats frame and the body of the -metrics HTTP endpoint.
func (s *Server) MetricsText() string {
	snap := s.Snapshot()
	var b strings.Builder
	line := func(name string, v any) {
		fmt.Fprintf(&b, "%s %v\n", name, v)
	}
	line("soifftd_accepted_total", snap.Accepted)
	line("soifftd_completed_total", snap.Completed)
	line("soifftd_shed_overload_total", snap.ShedOverload)
	line("soifftd_shed_deadline_total", snap.ShedDeadline)
	line("soifftd_bad_request_total", snap.BadRequest)
	line("soifftd_stats_requests_total", snap.StatsRequests)
	line("soifftd_batches_total", snap.Batches)
	line("soifftd_batched_transforms_total", snap.BatchedTransforms)
	line("soifftd_mean_batch_size", snap.MeanBatch())
	line("soifftd_max_batch_size", snap.MaxBatch)
	line("soifftd_connections_total", snap.ConnsTotal)
	line("soifftd_responses_encoded_total", snap.ResponsesEncoded)
	line("soifftd_responses_raw_total", snap.ResponsesRaw)
	line("soifftd_inflight", snap.InFlight)
	line("soifftd_plan_cache_entries", snap.PlanCache.Entries)
	line("soifftd_plan_cache_hits_total", snap.PlanCache.Hits)
	line("soifftd_plan_cache_misses_total", snap.PlanCache.Misses)
	line("soifftd_plan_cache_evictions_total", snap.PlanCache.Evictions)
	line("soifftd_plan_cache_designs_total", snap.PlanCache.Designs)
	for _, ph := range []string{trace.PhaseQueueWait, trace.PhasePlan, trace.PhaseExecute, trace.PhaseSerialize} {
		fmt.Fprintf(&b, "%s %.6f\n", phaseMetricName(ph), snap.PhaseSeconds[ph])
	}
	return b.String()
}
