package main

import "time"

// schedule is an open loop's arrival schedule: request i is due at
// start + i/rate, whatever happened to the requests before it. Latency is
// timed from that due instant, so a stall in the system (or the generator)
// is charged to every request it delayed, not only to the one in flight.
type schedule struct {
	start time.Time
	rate  float64 // requests per second
	i     int     // next request to dispatch
}

// newSchedule returns nil for rate 0, which is how a closed loop is paced.
func newSchedule(rate float64, start time.Time) *schedule {
	if rate == 0 {
		return nil
	}
	return &schedule{start: start, rate: rate}
}

// due is request i's scheduled instant, computed from i so that rounding
// never accumulates.
func (s *schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(float64(i) / s.rate * float64(time.Second)))
}

// peek returns the next request's number and due instant.
func (s *schedule) peek() (int, time.Time) { return s.i, s.due(s.i) }

// next moves on to the following request.
func (s *schedule) next() { s.i++ }
