// Package metrics collects the quantities the paper's performance
// analysis (§5) reasons about: multicast throughput, message latency
// distributions, buffer occupancy peaks, token round-trip times, and
// handoff delivery gaps.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
)

// Sample accumulates scalar observations and answers distribution
// queries. The zero value is ready to use.
type Sample struct {
	vals   []float64
	sorted bool
	sum    float64
	min    float64
	max    float64
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	if len(s.vals) == 0 || v < s.min {
		s.min = v
	}
	if len(s.vals) == 0 || v > s.max {
		s.max = v
	}
	s.vals = append(s.vals, v)
	s.sum += v
	s.sorted = false
}

// AddTime records a duration observation in seconds.
func (s *Sample) AddTime(t sim.Time) { s.Add(t.Seconds()) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.vals) }

// Mean returns the arithmetic mean (0 when empty).
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.sum / float64(len(s.vals))
}

// Min and Max return the extremes (0 when empty).
func (s *Sample) Min() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.min
}

func (s *Sample) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.max
}

// Quantile returns the p-quantile (0 ≤ p ≤ 1) by nearest-rank on the
// sorted sample.
func (s *Sample) Quantile(p float64) float64 {
	n := len(s.vals)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
	if p <= 0 {
		return s.vals[0]
	}
	if p >= 1 {
		return s.vals[n-1]
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return s.vals[idx]
}

// Summary is a one-line distribution description.
func (s *Sample) Summary() string {
	return fmt.Sprintf("n=%d mean=%.6f p50=%.6f p99=%.6f max=%.6f",
		s.N(), s.Mean(), s.Quantile(0.5), s.Quantile(0.99), s.Max())
}

// Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Value returns the count.
func (c *Counter) Value() uint64 { return c.n }
