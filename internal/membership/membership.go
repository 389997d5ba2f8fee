// Package membership implements the RingNet membership protocol sketched
// in paper §3: heartbeat-based failure detection between hierarchy
// neighbors, topology maintenance (ring repair, leader promotion,
// re-parenting to candidate contactors), batched propagation of
// host-level membership changes up the hierarchy, and the Token-Loss /
// Multiple-Token signals the multicast protocol consumes (§4.2.1).
//
// The manager executes each node's detector logic against only that
// node's local neighbor view, so the protocol remains decentralized even
// though one Go object hosts all the per-node state machines (exactly as
// the core engine hosts all NE state machines).
package membership

import (
	"sort"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Config tunes the membership protocol.
type Config struct {
	// Heartbeat is the beacon interval between hierarchy neighbors.
	Heartbeat sim.Time
	// Suspect declares a neighbor failed after this much silence.
	Suspect sim.Time
	// Batch is the delay during which host-level membership updates are
	// aggregated before being propagated upward (paper: "some batched
	// update scheme").
	Batch sim.Time
}

// DefaultConfig suits the default wired link parameters.
func DefaultConfig() Config {
	return Config{
		Heartbeat: 20 * sim.Millisecond,
		Suspect:   100 * sim.Millisecond,
		Batch:     50 * sim.Millisecond,
	}
}

// Detector is the heartbeat-silence failure detector shared by the
// simulator's membership manager (one instance per observing node) and
// the wire path's live-membership manager (one per process): it tracks
// when each watched peer was last heard and reports the peers whose
// silence exceeds the suspect threshold. Time is sim.Time in both
// worlds — virtual in the simulator, wall-clock-anchored under the
// wire's real-time driver — so the logic is identical.
type Detector struct {
	suspect   sim.Time
	lastHeard map[seq.NodeID]sim.Time
	// suspected is the suspicion state maintained by Silent: a peer past
	// the threshold is suspected, and a heartbeat clears it — a flap
	// (suspect → alive → suspect) restarts from a clean slate.
	suspected map[seq.NodeID]bool
}

// NewDetector builds a detector with the given silence threshold.
func NewDetector(suspect sim.Time) *Detector {
	return &Detector{
		suspect:   suspect,
		lastHeard: make(map[seq.NodeID]sim.Time),
		suspected: make(map[seq.NodeID]bool),
	}
}

// Heard records a liveness proof (heartbeat or any traffic) from p and
// clears any suspicion: a suspect that speaks again before eviction is
// a healthy peer with a fresh window.
func (d *Detector) Heard(p seq.NodeID, now sim.Time) {
	d.lastHeard[p] = now
	delete(d.suspected, p)
}

// Watch starts p's silence clock if it is not already running — a peer
// must get a full suspect window from the moment we first expect it.
func (d *Detector) Watch(p seq.NodeID, now sim.Time) {
	if _, ok := d.lastHeard[p]; !ok {
		d.lastHeard[p] = now
	}
}

// Forget drops p (removed from the ring, or handed to repair — a
// recovering peer restarts with a fresh window).
func (d *Detector) Forget(p seq.NodeID) {
	delete(d.lastHeard, p)
	delete(d.suspected, p)
}

// Suspected reports whether p is currently past the silence threshold
// (as of the last Silent sweep).
func (d *Detector) Suspected(p seq.NodeID) bool { return d.suspected[p] }

// Silent returns the watched peers whose silence exceeds the threshold,
// in ascending order (deterministic sweep), marking each as suspected.
func (d *Detector) Silent(now sim.Time) []seq.NodeID {
	var out []seq.NodeID
	for p, last := range d.lastHeard {
		if now-last > d.suspect {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	for _, p := range out {
		d.suspected[p] = true
	}
	return out
}

// nodeState is one node's local membership-protocol state.
type nodeState struct {
	id  seq.NodeID
	det *Detector
	// pending host-level membership deltas awaiting batch propagation.
	pendingJoin  uint32
	pendingLeave uint32
	// members is the aggregate count this node believes is below it
	// (meaningful at the top-ring leader).
	members int64
}

// Manager runs the membership protocol for every NE of an engine.
type Manager struct {
	e   *core.Engine
	cfg Config
	st  map[seq.NodeID]*nodeState

	// Repairs counts topology-maintenance actions taken.
	Repairs uint64
	// TokenLossSignals counts Token-Loss signals emitted.
	TokenLossSignals uint64

	ticker *sim.Ticker
}

// New builds a manager bound to an engine. Call Start to arm it.
func New(e *core.Engine, cfg Config) *Manager {
	if cfg.Heartbeat <= 0 {
		cfg = DefaultConfig()
	}
	return &Manager{e: e, cfg: cfg, st: make(map[seq.NodeID]*nodeState)}
}

// Start installs aux handlers on every NE and arms the heartbeat ticker.
func (m *Manager) Start() {
	for _, id := range m.e.H.NodeIDs() {
		m.adopt(id)
	}
	m.ticker = m.e.Scheduler().Every(m.cfg.Heartbeat, m.tick)
}

// Stop disarms the protocol.
func (m *Manager) Stop() {
	if m.ticker != nil {
		m.ticker.Stop()
		m.ticker = nil
	}
}

func (m *Manager) adopt(id seq.NodeID) {
	if _, ok := m.st[id]; ok {
		return
	}
	ns := &nodeState{id: id, det: NewDetector(m.cfg.Suspect)}
	m.st[id] = ns
	if ne := m.e.NE(id); ne != nil {
		ne.SetAux(netsim.HandlerFunc(func(from seq.NodeID, message msg.Message) {
			m.recv(id, from, message)
		}))
	}
}

// watchSet returns the hierarchy neighbors node id beacons to and
// monitors: ring previous/next, parent, and NE children.
func (m *Manager) watchSet(id seq.NodeID) []seq.NodeID {
	v, err := m.e.H.Neighbors(id)
	if err != nil {
		return nil
	}
	set := make(map[seq.NodeID]bool)
	for _, p := range []seq.NodeID{v.Previous, v.Next, v.Parent} {
		if p != seq.None && p != id {
			set[p] = true
		}
	}
	for _, c := range v.Children {
		set[c] = true
	}
	out := make([]seq.NodeID, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// tick runs one heartbeat round for every live node, in deterministic
// order: beacon to the watch set, check for suspects, flush batched
// membership updates.
func (m *Manager) tick() {
	now := m.e.Scheduler().Now()
	ids := m.e.H.NodeIDs()
	for _, id := range ids {
		ne := m.e.NE(id)
		if ne == nil || ne.Failed() {
			continue
		}
		ns := m.st[id]
		if ns == nil {
			m.adopt(id)
			ns = m.st[id]
		}
		watch := m.watchSet(id)
		watched := make(map[seq.NodeID]bool, len(watch))
		for _, peer := range watch {
			watched[peer] = true
			m.e.EnsureLink(id, peer)
			m.e.Net.Send(id, peer, &msg.Heartbeat{From: id})
			ns.det.Watch(peer, now)
		}
		for _, peer := range ns.det.Silent(now) {
			if !watched[peer] {
				// No longer a hierarchy neighbor (repaired away).
				ns.det.Forget(peer)
				continue
			}
			m.declareFailed(id, peer)
			ns.det.Forget(peer)
		}
		m.flushBatch(id, ns, now)
	}
}

func (m *Manager) recv(at, from seq.NodeID, message msg.Message) {
	ns := m.st[at]
	if ns == nil {
		return
	}
	switch v := message.(type) {
	case *msg.Heartbeat:
		ns.det.Heard(v.From, m.e.Scheduler().Now())
	case *msg.Join:
		ns.pendingJoin += v.Batch
		ns.members += int64(v.Batch)
	case *msg.Leave:
		ns.pendingLeave += v.Batch
		ns.members -= int64(v.Batch)
	}
}

// NotifyJoin and NotifyLeave feed host-level membership changes into the
// batching pipeline at an AP (called by the mobility layer / engine
// wrappers).
func (m *Manager) NotifyJoin(ap seq.NodeID) {
	if ns := m.st[ap]; ns != nil {
		ns.pendingJoin++
		ns.members++
	}
}

func (m *Manager) NotifyLeave(ap seq.NodeID) {
	if ns := m.st[ap]; ns != nil {
		ns.pendingLeave++
		ns.members--
	}
}

// flushBatch propagates aggregated membership deltas one level up
// (paper §3: AP → parent AG → ring leader → parent BR → top leader).
func (m *Manager) flushBatch(id seq.NodeID, ns *nodeState, now sim.Time) {
	if ns.pendingJoin == 0 && ns.pendingLeave == 0 {
		return
	}
	up := m.upstream(id)
	if up == seq.None {
		// Top of the hierarchy: the deltas rest here.
		ns.pendingJoin, ns.pendingLeave = 0, 0
		return
	}
	m.e.EnsureLink(id, up)
	if ns.pendingJoin > 0 {
		m.e.Net.Send(id, up, &msg.Join{Group: m.e.Group, Batch: ns.pendingJoin})
		ns.pendingJoin = 0
	}
	if ns.pendingLeave > 0 {
		m.e.Net.Send(id, up, &msg.Leave{Group: m.e.Group, Batch: ns.pendingLeave})
		ns.pendingLeave = 0
	}
}

// upstream returns the next hop for membership propagation: the parent
// for ring leaders and APs, the ring leader for non-leader ring members,
// and None at the top leader.
func (m *Manager) upstream(id seq.NodeID) seq.NodeID {
	v, err := m.e.H.Neighbors(id)
	if err != nil {
		return seq.None
	}
	if v.Tier == topology.TierAP {
		return v.Parent
	}
	if v.IsLeader || v.Leader == seq.None {
		return v.Parent
	}
	return v.Leader
}

// GroupSize returns the member count accumulated at the top-ring leader.
func (m *Manager) GroupSize() int64 {
	top := m.e.H.TopRing()
	if top == nil {
		return 0
	}
	if ns := m.st[top.Leader()]; ns != nil {
		return ns.members
	}
	return 0
}

// declareFailed runs topology maintenance at observer for a silent peer.
func (m *Manager) declareFailed(observer, peer seq.NodeID) {
	pn := m.e.H.Node(peer)
	if pn == nil {
		return // already repaired by another observer
	}
	// If the peer recovered in the meantime (heartbeats will flow
	// again), a live node must not be amputated: only proceed when the
	// network-level view agrees it is unreachable.
	if !m.e.NE(peer).Failed() {
		return
	}
	m.Repairs++
	affected := make(map[seq.NodeID]bool)

	// Ring repair: splice the peer out; the previous node's next
	// pointer bypasses it (paper §2's logical-ring repair, applied per
	// local ring).
	if r := m.e.H.RingOf(peer); r != nil {
		wasTop := r.Tier == topology.TierBR
		members := r.Nodes()
		if _, _, err := m.e.H.RemoveFromRing(peer); err == nil {
			for _, n := range members {
				if n != peer {
					affected[n] = true
				}
			}
			if wasTop {
				// Paper §4.2.1: the membership protocol emits a
				// Token-Loss signal whenever top-ring maintenance runs —
				// it cannot know whether the token was actually lost.
				m.TokenLossSignals++
				m.e.OnTokenLoss(observer)
			}
		}
	}

	// Orphaned children of the dead node re-parent to their candidate
	// contactors (paper §3 / Remark 2).
	for _, c := range append([]seq.NodeID(nil), pn.Children...) {
		cn := m.e.H.Node(c)
		if cn == nil {
			continue
		}
		newParent := m.pickCandidate(cn)
		if newParent != seq.None {
			if err := m.e.H.SetParent(c, newParent); err == nil {
				m.e.EnsureLink(c, newParent)
				affected[c] = true
				affected[newParent] = true
			}
		} else if err := m.e.H.SetParent(c, seq.None); err == nil {
			affected[c] = true
		}
	}

	// If the peer was the observer's parent, the ring-leader observer
	// re-attaches to one of its candidates.
	if on := m.e.H.Node(observer); on != nil && on.Parent == peer {
		if cand := m.pickCandidate(on); cand != seq.None {
			if err := m.e.H.SetParent(observer, cand); err == nil {
				m.e.EnsureLink(observer, cand)
				affected[observer] = true
				affected[cand] = true
			}
		}
	}

	// Drop the dead node's own links out of the tree.
	if pn2 := m.e.H.Node(peer); pn2 != nil && pn2.Parent != seq.None {
		parent := pn2.Parent
		if err := m.e.H.SetParent(peer, seq.None); err == nil {
			affected[parent] = true
		}
	}

	list := make([]seq.NodeID, 0, len(affected))
	for n := range affected {
		list = append(list, n)
	}
	sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
	m.e.OnTopologyChanged(list...)
}

// pickCandidate returns the first live candidate contactor of n.
func (m *Manager) pickCandidate(n *topology.Node) seq.NodeID {
	for _, c := range n.Candidates {
		if cn := m.e.H.Node(c); cn != nil && !m.e.NE(c).Failed() {
			return c
		}
	}
	return seq.None
}

// MergeTopRings merges two BR-tier rings (a healed partition) and emits
// the Multiple-Token signal to every member of the merged ring, per
// paper §4.2.1.
func (m *Manager) MergeTopRings(a, b topology.RingID) error {
	merged, err := m.e.H.Merge(a, b)
	if err != nil {
		return err
	}
	members := merged.Nodes()
	m.e.OnTopologyChanged(members...)
	for _, n := range members {
		m.e.OnMultipleToken(n)
	}
	return nil
}
