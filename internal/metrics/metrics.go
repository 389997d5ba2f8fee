// Package metrics collects the quantities the paper's performance
// analysis (§5) reasons about: multicast throughput, message latency
// distributions, buffer occupancy peaks, token round-trip times, and
// handoff delivery gaps.
//
// Like the protocol's own buffers, every accumulator here has a stated
// growth bound. A Sample holds at most 129 KB whatever it is fed. A
// DeliveryLog holds 24 B per message sent plus a fixed record per
// receiver; nothing grows with the number of deliveries.
package metrics

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// The log-linear bucket scheme of HdrHistogram: a magnitude's bucket is
// its float64 bit pattern shifted right by bucketShift, which keeps the
// 11 exponent bits and the top subBits mantissa bits. Each octave
// [2^e, 2^(e+1)) is cut into octaveBuckets equal buckets, so a bucket's
// midpoint is within half a bucket, 2^-(subBits+1) of the octave's base,
// of every value in it.
const (
	subBits       = 7
	bucketShift   = 52 - subBits
	octaveBuckets = 1 << subBits

	// alpha is Quantile's relative error bound, 2^-8 ≈ 0.39%.
	alpha = 1.0 / (2 * octaveBuckets)

	// Magnitudes are bucketed over [2^-32, 2^32), 64 octaves (1023 is
	// the float64 exponent bias); a magnitude outside that range counts
	// in the nearest edge bucket. For seconds this is 0.23 ns to 136
	// years.
	minBucket = (1023 - 32) << subBits
	maxBucket = (1023+32)<<subBits - 1
)

// Sample accumulates scalar observations and answers distribution
// queries in fixed memory. The zero value is ready to use.
//
// N, Min, Max and Mean are exact: the sum is accumulated in observation
// order. Quantile answers from a log-linear histogram (see bucketShift):
// the nearest-rank observation's bucket midpoint, which is within
// relative error 2^-8 of the exact nearest-rank value whenever that
// value's magnitude lies in [2^-32, 2^32) or is zero. Counts are kept
// per sign, one 1 KB page per touched octave, so a Sample costs 1 KB per
// octave its observations span (two for sim_mobile's 8.6-27.3 ms
// latencies) and at most 2 × 64 pages plus their index, 129 KB, in the
// worst case. A copy shares its pages with the original, so copy a
// Sample only to read it.
type Sample struct {
	n             int
	sum, min, max float64
	zeros         uint64  // observations equal to zero
	pos, neg      octaves // bucket counts of positive and negative observations by magnitude
}

// octaves holds one sign's bucket counts: a page per octave, allocated
// on first use, indexed from octave lo.
type octaves struct {
	lo    uint64 // octave (biased exponent) of pages[0]
	pages []*[octaveBuckets]uint64
}

func (o *octaves) add(b uint64) {
	oct := b >> subBits
	switch {
	case o.pages == nil:
		o.lo = oct
		o.pages = make([]*[octaveBuckets]uint64, 1)
	case oct < o.lo:
		grown := make([]*[octaveBuckets]uint64, o.lo-oct+uint64(len(o.pages)))
		copy(grown[o.lo-oct:], o.pages)
		o.lo, o.pages = oct, grown
	case oct-o.lo >= uint64(len(o.pages)):
		o.pages = append(o.pages, make([]*[octaveBuckets]uint64, oct-o.lo+1-uint64(len(o.pages)))...)
	}
	p := o.pages[oct-o.lo]
	if p == nil {
		p = new([octaveBuckets]uint64)
		o.pages[oct-o.lo] = p
	}
	p[b%octaveBuckets]++
}

// bucketOf returns the bucket of |v|, clamped to the bucketed range.
func bucketOf(v float64) uint64 {
	return min(max(math.Float64bits(math.Abs(v))>>bucketShift, minBucket), maxBucket)
}

// midpoint returns the middle of bucket b's magnitude range.
func midpoint(b uint64) float64 {
	return math.Float64frombits(b<<bucketShift | 1<<(bucketShift-1))
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
	switch {
	case v == 0:
		s.zeros++
	case math.Signbit(v):
		s.neg.add(bucketOf(v))
	default:
		s.pos.add(bucketOf(v))
	}
}

// AddTime records a duration observation in seconds.
func (s *Sample) AddTime(t sim.Time) { s.Add(t.Seconds()) }

// N returns the number of observations.
func (s *Sample) N() int { return s.n }

// Mean returns the arithmetic mean (0 when empty).
func (s *Sample) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Min and Max return the extremes (0 when empty).
func (s *Sample) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

func (s *Sample) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Quantile returns the p-quantile (0 ≤ p ≤ 1) by nearest rank: the exact
// Min at p ≤ 0 and Max at p ≥ 1, and otherwise the midpoint of the bucket
// holding the ⌈p·N⌉-th smallest observation, clamped to [Min, Max]. It
// is monotone in p.
func (s *Sample) Quantile(p float64) float64 {
	if s.n == 0 {
		return 0
	}
	if p <= 0 {
		return s.min
	}
	if p >= 1 {
		return s.max
	}
	rank := min(max(int(math.Ceil(p*float64(s.n))), 1), s.n)
	return min(max(s.atRank(uint64(rank)), s.min), s.max)
}

// atRank returns the representative of the bucket holding the rank-th
// smallest observation (1 ≤ rank ≤ N): negative buckets by descending
// magnitude, then zero, then positive buckets by ascending magnitude.
func (s *Sample) atRank(rank uint64) float64 {
	for i := len(s.neg.pages) - 1; i >= 0; i-- {
		if p := s.neg.pages[i]; p != nil {
			for j := octaveBuckets - 1; j >= 0; j-- {
				if rank <= p[j] {
					return -midpoint((s.neg.lo+uint64(i))<<subBits | uint64(j))
				}
				rank -= p[j]
			}
		}
	}
	if rank <= s.zeros {
		return 0
	}
	rank -= s.zeros
	for i, p := range s.pos.pages {
		if p != nil {
			for j, c := range p {
				if rank <= c {
					return midpoint((s.pos.lo+uint64(i))<<subBits | uint64(j))
				}
				rank -= c
			}
		}
	}
	return s.max // unreachable: the counts sum to N
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
