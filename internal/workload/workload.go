// Package workload generates the traffic and churn the paper's analysis
// assumes: s multicast sources sending λ messages per time unit (§5),
// plus membership churn (joins/leaves) and handoff schedules for the
// mobility experiments.
package workload

import (
	"repro/internal/seq"
	"repro/internal/sim"
)

// SubmitFunc injects one application message at a corresponding node.
type SubmitFunc func(corr seq.NodeID, payload []byte) error

// Source is a per-corresponding-node traffic generator.
type Source struct {
	sched   *sim.Scheduler
	submit  SubmitFunc
	corr    seq.NodeID
	payload []byte

	// Sent counts injected messages; Errors counts rejected submits.
	Sent   uint64
	Errors uint64
	stop   bool
}

// NewSource builds a generator for one source. payloadSize bytes of
// payload accompany every message.
func NewSource(sched *sim.Scheduler, submit SubmitFunc, corr seq.NodeID, payloadSize int) *Source {
	return &Source{sched: sched, submit: submit, corr: corr, payload: make([]byte, payloadSize)}
}

// Stop halts the generator after the current event.
func (s *Source) Stop() { s.stop = true }

func (s *Source) fire() {
	if err := s.submit(s.corr, s.payload); err != nil {
		s.Errors++
		return
	}
	s.Sent++
}

// CBR schedules count messages at a constant bit rate: one message every
// interval, starting at start. count == 0 means unbounded (until Stop).
func (s *Source) CBR(start, interval sim.Time, count int) {
	var step func(i int)
	step = func(i int) {
		if s.stop || (count > 0 && i >= count) {
			return
		}
		s.fire()
		s.sched.After(interval, func() { step(i + 1) })
	}
	s.sched.At(start, func() { step(0) })
}

// Poisson schedules messages with exponential inter-arrival times of the
// given mean, starting at start, until Stop (or count messages when
// count > 0).
func (s *Source) Poisson(rng *sim.RNG, start, meanGap sim.Time, count int) {
	var step func(i int)
	step = func(i int) {
		if s.stop || (count > 0 && i >= count) {
			return
		}
		s.fire()
		s.sched.After(rng.ExpDuration(meanGap), func() { step(i + 1) })
	}
	s.sched.At(start, func() { step(0) })
}

// Burst injects n messages back-to-back at time at.
func (s *Source) Burst(at sim.Time, n int) {
	s.sched.At(at, func() {
		for i := 0; i < n; i++ {
			if s.stop {
				return
			}
			s.fire()
		}
	})
}

// Group drives several sources with identical parameters — the paper's
// "s multicast sources, each sending λ messages per time unit".
type Group struct {
	Sources []*Source
}

// NewGroup builds one Source per corresponding node.
func NewGroup(sched *sim.Scheduler, submit SubmitFunc, corrs []seq.NodeID, payloadSize int) *Group {
	g := &Group{}
	for _, c := range corrs {
		g.Sources = append(g.Sources, NewSource(sched, submit, c, payloadSize))
	}
	return g
}

// CBR starts all sources at the same rate λ = 1/interval, staggered by
// stagger to avoid synchronized bursts.
func (g *Group) CBR(start, interval, stagger sim.Time, count int) {
	for i, s := range g.Sources {
		s.CBR(start+sim.Time(i)*stagger, interval, count)
	}
}

// Poisson starts all sources with the same mean gap, forking independent
// RNG streams.
func (g *Group) Poisson(rng *sim.RNG, start, meanGap sim.Time, count int) {
	for _, s := range g.Sources {
		s.Poisson(rng.Fork(), start, meanGap, count)
	}
}

// Stop halts every source.
func (g *Group) Stop() {
	for _, s := range g.Sources {
		s.Stop()
	}
}

// Sent sums messages injected across sources.
func (g *Group) Sent() uint64 {
	var n uint64
	for _, s := range g.Sources {
		n += s.Sent
	}
	return n
}
