// Package mobility drives mobile-host movement over the RingNet
// hierarchy: dwell-time based handoffs between access proxies, movement
// patterns (uniform random walk among neighboring cells, hotspot bias),
// and orphan rescue when an AP fails. Handoffs exercise the multicast
// path reservation machinery of paper §3.
package mobility

import (
	"sort"

	"repro/internal/core"
	"repro/internal/seq"
	"repro/internal/sim"
)

// Pattern chooses the next AP for a host.
type Pattern interface {
	// Next picks the handoff target given the current AP and the cell
	// neighborhood (never empty; current is excluded).
	Next(rng *sim.RNG, current seq.NodeID, neighbors []seq.NodeID) seq.NodeID
}

// RandomWalk picks uniformly among neighboring cells.
type RandomWalk struct{}

// Next implements Pattern.
func (RandomWalk) Next(rng *sim.RNG, current seq.NodeID, neighbors []seq.NodeID) seq.NodeID {
	return neighbors[rng.Intn(len(neighbors))]
}

// Hotspot walks toward a fixed AP with probability Bias, otherwise
// uniformly (models commuter flows toward a popular cell).
type Hotspot struct {
	AP   seq.NodeID
	Bias float64
}

// Next implements Pattern.
func (h Hotspot) Next(rng *sim.RNG, current seq.NodeID, neighbors []seq.NodeID) seq.NodeID {
	if rng.Bool(h.Bias) {
		// Step to the neighbor closest to the hotspot in ID space (a
		// proxy for geographic distance on the builder's dense grid).
		best := neighbors[0]
		for _, n := range neighbors[1:] {
			if diff(n, h.AP) < diff(best, h.AP) {
				best = n
			}
		}
		return best
	}
	return neighbors[rng.Intn(len(neighbors))]
}

func diff(a, b seq.NodeID) uint32 {
	if a > b {
		return uint32(a - b)
	}
	return uint32(b - a)
}

// Config tunes the mover.
type Config struct {
	// MeanDwell is the mean (exponential) time a host camps on one AP.
	MeanDwell sim.Time
	// Reserve enables multicast path reservation on each handoff.
	Reserve bool
	// RescueAfter is how long an orphaned host (its AP crashed) waits
	// before attaching elsewhere; zero disables rescue.
	RescueAfter sim.Time
	// Pattern defaults to RandomWalk.
	Pattern Pattern
}

// Mover schedules handoffs for a set of hosts across the engine's APs.
type Mover struct {
	e    *core.Engine
	cfg  Config
	rng  *sim.RNG
	aps  []seq.NodeID
	stop bool

	// Handoffs counts executed handoffs.
	Handoffs uint64
}

// New builds a mover over the engine's AP population. The AP list is the
// cell layout: index adjacency defines the neighborhood (a ring of
// cells).
func New(e *core.Engine, rng *sim.RNG, aps []seq.NodeID, cfg Config) *Mover {
	if cfg.Pattern == nil {
		cfg.Pattern = RandomWalk{}
	}
	if cfg.MeanDwell <= 0 {
		cfg.MeanDwell = 2 * sim.Second
	}
	sorted := append([]seq.NodeID(nil), aps...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return &Mover{e: e, cfg: cfg, rng: rng, aps: sorted}
}

// Start arms dwell timers for the given hosts.
func (mv *Mover) Start(hosts []seq.HostID) {
	for _, h := range hosts {
		mv.schedule(h)
	}
	if mv.cfg.RescueAfter > 0 {
		mv.e.Scheduler().Every(mv.cfg.RescueAfter, func() { mv.rescueOrphans() })
	}
}

// Stop halts future handoffs (in-flight ones complete).
func (mv *Mover) Stop() { mv.stop = true }

func (mv *Mover) schedule(h seq.HostID) {
	if mv.stop {
		return
	}
	dwell := mv.rng.ExpDuration(mv.cfg.MeanDwell)
	mv.e.Scheduler().After(dwell, func() { mv.move(h) })
}

// neighbors returns the cell neighborhood of ap: the two adjacent cells
// in the sorted AP layout (wrapping), excluding crashed APs.
func (mv *Mover) neighbors(ap seq.NodeID) []seq.NodeID {
	idx := -1
	for i, a := range mv.aps {
		if a == ap {
			idx = i
			break
		}
	}
	var cand []seq.NodeID
	if idx < 0 {
		cand = mv.aps
	} else {
		n := len(mv.aps)
		cand = []seq.NodeID{mv.aps[(idx+1)%n], mv.aps[(idx-1+n)%n]}
	}
	out := make([]seq.NodeID, 0, len(cand))
	for _, c := range cand {
		if c != ap && !mv.e.NE(c).Failed() {
			out = append(out, c)
		}
	}
	return out
}

func (mv *Mover) move(h seq.HostID) {
	if mv.stop || mv.e.MHOf(h) == nil {
		return
	}
	cur := mv.e.H.APOf(h)
	nbrs := mv.neighbors(cur)
	if len(nbrs) > 0 {
		target := mv.cfg.Pattern.Next(mv.rng, cur, nbrs)
		if err := mv.e.Handoff(h, target, mv.cfg.Reserve); err == nil {
			mv.Handoffs++
		}
	}
	mv.schedule(h)
}

// rescueOrphans re-attaches hosts whose AP crashed.
func (mv *Mover) rescueOrphans() {
	if mv.stop {
		return
	}
	for _, h := range mv.hosts() {
		ap := mv.e.H.APOf(h)
		if ap == seq.None || !mv.e.NE(ap).Failed() {
			continue
		}
		nbrs := mv.neighbors(ap)
		if len(nbrs) == 0 {
			continue
		}
		target := nbrs[mv.rng.Intn(len(nbrs))]
		if err := mv.e.Handoff(h, target, mv.cfg.Reserve); err == nil {
			mv.Handoffs++
		}
	}
}

func (mv *Mover) hosts() []seq.HostID {
	var out []seq.HostID
	for _, ap := range mv.aps {
		out = append(out, mv.e.H.HostsAt(ap)...)
	}
	return out
}
