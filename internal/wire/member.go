package wire

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/membership"
	"repro/internal/msg"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/topology"
)

// This file is the live-membership subsystem of the wire path: it runs
// the paper's §3 failure-detection/ring-repair machinery over real
// sockets so a ringnetd cluster survives member crashes and accepts
// dynamic joins and graceful leaves, instead of freezing the moment its
// static JSON ring config stops matching reality.
//
// Design: full-mesh heartbeats (they ride the protocol substrate, so they
// coalesce into data datagrams and are counted in the control-plane
// split) feed per-member suspect timers on the real-time driver. All
// reconfiguration is decided by one deterministic coordinator — the
// lowest-ID member the local detector believes alive — but a
// coordinator may only COMMIT a new epoch once a majority of the
// previous epoch's membership has granted it a quorum vote for that
// epoch number. Votes are content-free promises keyed by epoch number:
// each voter grants a given epoch number to at most one proposer
// (first come, sticky), so two coordinators separated by a partition
// can never both commit the same next epoch — quorum intersection over
// the uniquely-determined previous-epoch voter set guarantees at most
// one winner. Every reconfiguration (eviction, join, graceful leave,
// partition merge) flows through one staged proposal per epoch.
//
// The committed RingUpdate carries the full member list (with
// transport addresses) to every member, once. Heartbeats echo the
// sender's epoch, so a member that missed an epoch says so on its next
// heartbeat, and whichever member hears it answers with the current
// epoch: one reply per stale heartbeat, so the laggard's own beacon rate
// bounds the catch-up traffic, and a dead peer costs nothing. An evicted
// leaver still draining answers too, which is how survivors that missed
// a leaving coordinator's farewell learn of it. Members apply an update
// by reforming the topology ring in place, admitting new peers to the
// substrate, refreshing the local NE's neighbor view, and severing
// reliable-delivery state aimed at removed members. The coordinator
// commits an epoch by disseminating it and then applying it as every
// other member does. The coordinator raises the paper's Token-Loss
// signal when it commits an epoch that evicted a member, and nowhere
// else, so Token-Regeneration always runs from a single origin.
//
// Partitions: the side that cannot count a strict majority of the
// current membership as live (self + unsuspected peers) parks in a
// read-only LAME RING: it holds its delivery queue state and keeps
// answering retransmission Nacks, but delivers nothing new, proposes
// nothing, grants no joins, and never regenerates a token. While lame
// it keeps low-rate probe heartbeats flowing toward its suspects; when
// a probe crosses a healed link, the quorum-side coordinator (which
// remembers every evicted member's address in its graves map) answers
// with a RingSummary — epoch, delivery front, order hash, and the
// stamp of its surviving token. The minority member sees the higher
// epoch, destroys any stale token it still holds (the paper's §4.2.1
// Multiple-Token resolution: lower epoch dies), arms the multi-token
// filter window, and replies with a MergeReq. The coordinator stages
// the returning member and splices it back in at the next quorum
// epoch, flagged Merge so every applier runs the same token-side
// reconciliation. The rejoined minority backfills the globals it
// missed through the normal Nack repair path, so all members converge
// to one total order.
//
// Joins: a fresh process sends JoinReq (with its UDP address) to seed
// members; non-coordinators forward it inward; the coordinator stages
// the joiner for the next quorum epoch. The first RingUpdate
// containing the joiner doubles as its JoinOK: it carries the
// coordinator's delivery front as the stream baseline, which the
// joiner force-releases its MQ to, so it observes a consistent suffix
// of the total order from that point on.
//
// Leaves: SIGTERM turns into LeaveReq gossip; the coordinator evicts
// the leaver at the next quorum epoch; the leaver keeps serving
// retransmissions (and forwards any held token through the normal
// courier path) until its couriers drain, then exits. Members removed
// from the ring stay reachable through the substrate as "lame ducks" for
// a grace period so exactly that drain traffic can complete.

const (
	// probeEvery throttles a lame member's heartbeats toward suspects to
	// one in this many ticks — these are the heal probes.
	probeEvery = 4
	// proposalTimeoutTicks (× Heartbeat) bounds how long a proposal may
	// sit at one epoch number without reaching quorum before the
	// proposer retries at a higher number. This is what un-wedges
	// coordinator succession: when the old coordinator died after
	// collecting grants, the voters' ledger entries for its number are
	// skipped past, never contested — epoch numbers may skip, and
	// appliers only require them to grow.
	proposalTimeoutTicks = 6
)

// MemberTunables shapes the live-membership protocol's timers (driver
// virtual time, which tracks the wall clock).
type MemberTunables struct {
	// Heartbeat is the beacon (and protocol tick) interval.
	Heartbeat sim.Time
	// Suspect declares a member failed after this much heartbeat silence.
	Suspect sim.Time
}

// proposal is a staged next-epoch reconfiguration awaiting quorum. The
// voter set is the membership of the PREVIOUS epoch (the one being
// superseded), so any two proposals for the same epoch number share a
// voter set and must intersect in at least one voter.
type proposal struct {
	epoch    uint64 // proposed number (> base; may skip past dead numbers)
	base     uint64 // proposer's committed epoch when staged
	born     sim.Time
	update   *msg.RingUpdate
	removed  []seq.NodeID // sorted
	added    map[seq.NodeID]string
	hadDead  bool
	isMerge  bool
	voters   []seq.NodeID
	voterSet map[seq.NodeID]bool
	votes    map[seq.NodeID]bool
	need     int
}

// Membership runs the live-membership state machine for one wire node.
// It keeps no clock of its own: messages arrive through the local NE's
// aux handler, and the group's housekeeping step calls tick once per
// heartbeat. All state is confined to the driver goroutine; external
// goroutines use Driver.Call to enter (see Node.Shutdown).
type Membership struct {
	e    *core.Engine
	ne   *core.NE   // the local node; every per-node operation goes through it
	net  *outboxNet // the group's substrate: its sends, peers and clock probes
	self seq.NodeID
	addr string
	cfg  MemberTunables

	epoch   uint64
	members map[seq.NodeID]string // id → transport address
	order   []seq.NodeID          // sorted member ids
	ringID  topology.RingID

	det *membership.Detector // shared with the sim membership manager

	joined  bool
	leaving bool
	evicted bool
	lame    bool
	seeds   []PeerAddr

	// Quorum state.
	prop    *proposal
	skew    uint64   // numbers burned by timed-out proposals since the last commit
	granted struct { // voter ledger: highest epoch promised, and to whom
		epoch uint64
		to    seq.NodeID
	}
	pendingLeave map[seq.NodeID]bool
	pendingJoin  map[seq.NodeID]string
	pendingMerge map[seq.NodeID]string
	// pendingJoinFront remembers the durable front each staged joiner
	// offered in its JoinReq, for resume-grant evaluation at proposal
	// build time.
	pendingJoinFront map[seq.NodeID]seq.GlobalSeq

	// Partition-heal state.
	graves      map[seq.NodeID]string // evicted id → last known address
	lastSummary map[seq.NodeID]sim.Time
	lameSince   sim.Time
	lameTotal   sim.Time
	healStartAt sim.Time
	healDoneAt  sim.Time
	probeTick   uint64

	lastUpdate *msg.RingUpdate // the current epoch's update (nil only before a joiner's splice)

	// ResumeFront, when non-zero, is the durable delivery front this
	// node recovered from its on-disk log. Joiners offer it in their
	// JoinReq; the coordinator grants resumption when the gap up to its
	// own front still fits in the ring's retained repair windows.
	ResumeFront seq.GlobalSeq

	// OnJoined fires (on the driver goroutine) when a joiner's first
	// RingUpdate splices it into the ring. baseline is the stream
	// baseline the epoch carried; resumed is non-zero when the
	// coordinator granted resumption at this node's own durable front
	// (delivery continues from resumed+1, with the gap
	// (resumed, baseline] backfilled by Nack repair).
	OnJoined func(baseline, resumed seq.GlobalSeq)
	// OnDiscarded fires when this node abandoned an unrepairable range
	// of the stream: a fresh (re)join or below-horizon merge skipped
	// globals [lo, hi] that no live member retains.
	OnDiscarded func(lo, hi seq.GlobalSeq)
	// OnEvicted fires when an update excludes this node (graceful leave
	// or eviction) — time to drain and exit.
	OnEvicted func()
	OnRemoved func(seq.NodeID) // fires for each peer an applied update removes
	// OrderHash, when set, supplies the local delivery-order hash for
	// RingSummary/MergeReq exchanges (wired to the daemon's tracker).
	OrderHash func() uint64

	// tel is the group's instrument bundle: membership transitions count
	// in the daemon's live registry and event ring.
	tel *groupTelemetry
	// prevSuspect is the failure detector's verdict at the last tick,
	// kept to emit suspect/unsuspect transition events.
	prevSuspect map[seq.NodeID]bool
}

// NewMembership builds the manager for an assembled node whose local NE
// is already started. For an initial ring member, members lists the
// configured ring (epoch 1, already in topology); for a joiner, members
// is nil and seeds names the processes to solicit.
func NewMembership(e *core.Engine, net *outboxNet, tel *groupTelemetry, self seq.NodeID, selfAddr string,
	cfg MemberTunables, members map[seq.NodeID]string, ringID topology.RingID, seeds []PeerAddr) *Membership {
	m := &Membership{
		e: e, ne: e.NE(self), net: net, tel: tel, self: self, addr: selfAddr, cfg: cfg,
		members:          make(map[seq.NodeID]string),
		det:              membership.NewDetector(cfg.Suspect),
		pendingLeave:     make(map[seq.NodeID]bool),
		pendingJoin:      make(map[seq.NodeID]string),
		pendingMerge:     make(map[seq.NodeID]string),
		pendingJoinFront: make(map[seq.NodeID]seq.GlobalSeq),
		graves:           make(map[seq.NodeID]string),
		lastSummary:      make(map[seq.NodeID]sim.Time),
		prevSuspect:      make(map[seq.NodeID]bool),
		ringID:           ringID,
		seeds:            seeds,
	}
	if len(members) > 0 {
		m.epoch = 1
		m.joined = true
		for id, a := range members {
			m.members[id] = a
		}
		m.reorder()
		m.lastUpdate = m.buildUpdateFor(1, m.members)
	}
	m.tel.epoch.Set(int64(m.epoch))
	return m
}

// Start installs the aux handler on the local NE and starts watching
// every peer. Must run on the driver goroutine.
func (m *Membership) Start() {
	m.ne.SetAux(m)
	now := m.e.Scheduler().Now()
	for _, p := range m.order {
		if p != m.self {
			m.det.Watch(p, now)
		}
	}
}

// Joined reports whether this node is currently a ring member.
func (m *Membership) Joined() bool { return m.joined && !m.evicted }

// Spliced reports whether this node has EVER been spliced into the ring
// (it stays true after eviction — an evicted leaver still serves its
// drain: acks, token handoff, straggler Nacks).
func (m *Membership) Spliced() bool { return m.joined }

// Evicted reports whether an epoch has excluded this node.
func (m *Membership) Evicted() bool { return m.evicted }

// Epoch returns the current membership epoch.
func (m *Membership) Epoch() uint64 { return m.epoch }

// Lame reports whether this node is parked in the read-only lame ring
// (lost quorum; holding state, delivering nothing new).
func (m *Membership) Lame() bool { return m.lame }

// Behind reports whether this node's delivery front is below the current
// epoch's stream baseline. The coordinator had delivered that far when it
// proposed the epoch, so a member behind it (merged back from the lame
// ring, or resumed at its durable front) still has globals to catch up
// on, even while its MQ shows no gap yet.
func (m *Membership) Behind() bool {
	return m.lastUpdate != nil && m.ne.MQ().Front() < m.lastUpdate.Baseline
}

// LameTime returns cumulative time spent parked in the lame ring.
func (m *Membership) LameTime() sim.Time {
	if m.lame {
		return m.lameTotal + (m.e.Scheduler().Now() - m.lameSince)
	}
	return m.lameTotal
}

// HealLatency returns the duration of the last completed partition
// heal: from the first cross-partition probe answered (coordinator) or
// RingSummary received (minority) to the merge epoch landing. Zero if
// no heal has completed.
func (m *Membership) HealLatency() sim.Time {
	if m.healStartAt != 0 && m.healDoneAt > m.healStartAt {
		return m.healDoneAt - m.healStartAt
	}
	return 0
}

// AppendLivePeers appends to dst the members this node currently
// believes alive, excluding itself — the end-of-run gossip's audience —
// and returns the extended slice.
func (m *Membership) AppendLivePeers(dst []seq.NodeID) []seq.NodeID {
	for _, p := range m.order {
		if p != m.self && !m.det.Suspected(p) {
			dst = append(dst, p)
		}
	}
	return dst
}

// Leave starts a graceful departure: announce to the coordinator (and
// keep announcing — the socket is lossy) until an epoch excludes us.
// If we are the coordinator, stage our own eviction for the next
// quorum epoch.
func (m *Membership) Leave() {
	if m.evicted || m.leaving {
		return
	}
	m.leaving = true
	if !m.joined {
		// Never made it into the ring: nothing to announce.
		m.evicted = true
		if m.OnEvicted != nil {
			m.OnEvicted()
		}
		return
	}
	m.announceLeave()
}

func (m *Membership) announceLeave() {
	if m.lame {
		return // no quorum to commit a leave; park until the ring heals
	}
	if m.coordinator() == m.self {
		if !m.pendingLeave[m.self] {
			m.pendingLeave[m.self] = true
			m.coordinate(m.e.Scheduler().Now())
		}
		return
	}
	m.e.Net.Send(m.self, m.coordinator(), &msg.LeaveReq{Group: m.e.Group, Node: m.self})
}

func (m *Membership) reorder() {
	m.order = m.order[:0]
	for id := range m.members {
		m.order = append(m.order, id)
	}
	sort.Slice(m.order, func(i, j int) bool { return m.order[i] < m.order[j] })
}

// coordinator is the lowest member this node believes alive.
func (m *Membership) coordinator() seq.NodeID {
	for _, p := range m.order {
		if p == m.self || !m.det.Suspected(p) {
			return p
		}
	}
	return m.self
}

// Recv implements netsim.Handler: the membership-plane messages the NE's
// protocol dispatch does not consume. Driver goroutine.
func (m *Membership) Recv(from seq.NodeID, message msg.Message) {
	switch v := message.(type) {
	case *msg.Heartbeat:
		if _, ok := m.members[v.From]; ok {
			m.det.Heard(v.From, m.e.Scheduler().Now())
			// A member of the current epoch that echoes an older one
			// missed the update: catch it up now. An evicted leaver
			// answers too, so survivors that lost its farewell learn of it.
			if v.Epoch < m.epoch {
				m.sendUpdate(v.From)
			}
		} else {
			// Non-member heartbeat: a previously-evicted node probing
			// across a healed partition (or resuming from a pause).
			m.handleProbe(v.From, v.Epoch)
		}
	case *msg.QuorumVote:
		m.handleVote(v)
	case *msg.RingSummary:
		m.handleRingSummary(v)
	case *msg.MergeReq:
		m.handleMergeReq(v)
	case *msg.RingUpdate:
		m.applyUpdate(v)
	case *msg.JoinReq:
		m.handleJoinReq(v)
	case *msg.LeaveReq:
		m.handleLeaveReq(v)
	}
}

// HandleUnknown passes Recv the membership messages that may come from
// senders this group does not know in the transport peer table: a
// JoinReq from a fresh process, a RingUpdate from a coordinator this
// (joining) node has not met yet, or a probe heartbeat / MergeReq from an
// evicted member whose endpoint was already retired. Every member is an
// admitted peer, so an unknown sender's heartbeat is a probe. Driver
// goroutine.
func (m *Membership) HandleUnknown(from seq.NodeID, msgs []msg.Message) {
	for _, mm := range msgs {
		switch mm.(type) {
		case *msg.JoinReq, *msg.RingUpdate, *msg.Heartbeat, *msg.MergeReq:
			m.Recv(from, mm)
		}
	}
}

// tick is one heartbeat round: beacon, detect, re-evaluate quorum,
// coordinate. The order is load-bearing: suspicion is swept and the lame
// decision taken BEFORE any coordination, so a node that just lost
// quorum parks without ever proposing. The group's step calls it once
// per heartbeat. Driver goroutine.
func (m *Membership) tick(now sim.Time) {
	if m.evicted {
		return
	}
	if !m.joined {
		// Joiner: solicit membership from every seed, offering our
		// durable front so the coordinator can grant a resume.
		jr := &msg.JoinReq{Group: m.e.Group, Node: m.self, Addr: m.addr, Front: m.ResumeFront}
		for _, s := range m.seeds {
			m.e.Net.Send(m.self, seq.NodeID(s.Node), jr)
		}
		return
	}
	m.probeTick++
	probe := !m.lame || m.probeTick%probeEvery == 0
	hb := &msg.Heartbeat{From: m.self, Epoch: m.epoch}
	for _, p := range m.order {
		if p == m.self {
			continue
		}
		if m.lame && m.det.Suspected(p) && !probe {
			continue // lame: throttle beacons toward suspects to probe rate
		}
		m.e.Net.Send(m.self, p, hb)
	}
	m.det.Silent(now) // sweep: marks suspicion inside the detector
	m.noteSuspects()
	m.updateLame(now)
	if m.lame {
		return // read-only: no proposals, no joins
	}
	if m.leaving {
		m.announceLeave()
		if m.evicted {
			return
		}
	}
	if m.coordinator() == m.self {
		m.coordinate(now)
	}
}

// noteSuspects diffs the failure detector's verdict against the last
// tick, emitting suspect/unsuspect transition events and refreshing the
// live suspect-count gauge.
func (m *Membership) noteSuspects() {
	n := 0
	for _, p := range m.order {
		if p == m.self {
			continue
		}
		s := m.det.Suspected(p)
		if s {
			n++
		}
		if s != m.prevSuspect[p] {
			m.prevSuspect[p] = s
			if s {
				m.tel.emit("suspect", uint64(p), "")
			} else {
				m.tel.emit("unsuspect", uint64(p), "")
			}
		}
	}
	// Drop entries for members no longer in the ring so a rejoiner
	// starts from a clean verdict.
	if len(m.prevSuspect) > len(m.order) {
		for id := range m.prevSuspect {
			if _, ok := m.members[id]; !ok {
				delete(m.prevSuspect, id)
			}
		}
	}
	m.tel.suspects.Set(int64(n))
}

// updateLame re-evaluates quorum: live = self + unsuspected members.
// Losing a strict majority parks the node in the lame ring; regaining
// it (a suspect heartbeats again before any eviction) releases it.
func (m *Membership) updateLame(now sim.Time) {
	live := m.countLive()
	quorate := live*2 > len(m.order)
	switch {
	case m.lame && quorate:
		m.exitLame(now, 0)
	case !m.lame && !quorate:
		m.lame = true
		m.lameSince = now
		m.tel.lameEntries.Inc()
		m.tel.lame.Set(1)
		m.tel.emit("lame-enter", uint64(live), fmt.Sprintf("%d/%d live", live, len(m.order)))
		m.prop = nil
		m.ne.SetDeliveryHold(true)
	}
}

// countLive counts self and the ring members the failure detector does
// not suspect now.
func (m *Membership) countLive() int {
	live := 1
	for _, p := range m.order {
		if p != m.self && !m.det.Suspected(p) {
			live++
		}
	}
	return live
}

// exitLame releases the read-only park and resumes delivery. When the
// merge baseline has run more than the retained repair horizon past
// this node's front, the gap can never be Nack-repaired — no live
// member retains those bodies — so instead of grinding give-up rounds
// forever the node rejoins FRESH at the quorum baseline, abandoning
// the unrepairable range (reported through OnDiscarded).
func (m *Membership) exitLame(now sim.Time, baseline seq.GlobalSeq) {
	m.lame = false
	m.lameTotal += now - m.lameSince
	m.tel.lame.Set(0)
	m.tel.emit("lame-exit", uint64(baseline), (now - m.lameSince).String())
	front := m.ne.MQ().Front()
	if h := m.resumeHorizon(); baseline > front && h > 0 && baseline-front > h {
		lo, hi := m.ne.RejoinFresh(baseline)
		m.tel.emit("fresh-rejoin", uint64(baseline), fmt.Sprintf("front %d horizon %d", front, h))
		if lo <= hi && m.OnDiscarded != nil {
			m.OnDiscarded(lo, hi)
		}
	} else {
		m.ne.Readmit(baseline)
	}
	if m.healStartAt != 0 && m.healDoneAt == 0 {
		m.healDoneAt = now
		m.tel.emit("merge-heal", uint64(m.epoch), (m.healDoneAt - m.healStartAt).String())
	}
}

// markHealStart opens a heal episode (idempotent within one episode).
func (m *Membership) markHealStart(now sim.Time) {
	if m.healDoneAt != 0 {
		m.healStartAt, m.healDoneAt = 0, 0 // new episode
	}
	if m.healStartAt == 0 {
		m.healStartAt = now
	}
}

// coordinate runs one coordinator round: build or refresh the staged
// proposal and push vote requests. With nothing staged it sends nothing:
// laggards are caught up when their heartbeats arrive (Recv).
func (m *Membership) coordinate(now sim.Time) {
	if m.prop != nil && m.prop.epoch <= m.epoch {
		m.prop = nil // superseded by a committed/applied epoch
	}
	if m.prop != nil && now-m.prop.born >= proposalTimeoutTicks*m.cfg.Heartbeat {
		// The number may be wedged: a prior (now dead) proposer collected
		// grants for it that will never be released. Burn it and retry
		// one higher.
		p := m.prop
		m.tel.quorumRetries.Inc()
		m.tel.emit("quorum-retry", p.epoch, fmt.Sprintf("%d/%d votes", len(p.votes), p.need))
		m.skew = p.epoch - m.epoch
		m.prop = nil
	}
	if m.prop == nil {
		m.prop = m.buildProposal(now)
		if m.prop != nil && m.checkQuorum() {
			return // single-member ring (or cached grants): instant commit
		}
	} else {
		m.refreshProposal(now)
	}
	if m.prop != nil {
		m.pushVotes()
	}
}

// buildProposal stages the next epoch from current suspicion and the
// pending join/leave/merge sets. Returns nil when there is no delta.
// The proposed number starts at epoch+1, skips numbers burned by
// timed-out proposals (skew), and steps past any number our own ledger
// has promised to another proposer — the self-vote is a grant like any
// other and must not break a promise.
func (m *Membership) buildProposal(now sim.Time) *proposal {
	removedSet := make(map[seq.NodeID]bool)
	var removed []seq.NodeID
	hadDead := false
	for _, p := range m.order { // sorted, so removed comes out sorted
		if p != m.self && m.det.Suspected(p) {
			removed = append(removed, p)
			removedSet[p] = true
			hadDead = true
			continue
		}
		if m.pendingLeave[p] {
			removed = append(removed, p)
			removedSet[p] = true
		}
	}
	added := make(map[seq.NodeID]string)
	isMerge := false
	for n, a := range m.pendingJoin {
		if _, ok := m.members[n]; ok || removedSet[n] || a == "" {
			continue
		}
		added[n] = a
	}
	for n, a := range m.pendingMerge {
		if _, ok := m.members[n]; ok || removedSet[n] || a == "" {
			continue
		}
		added[n] = a
		isMerge = true
	}
	if len(removed) == 0 && len(added) == 0 {
		return nil
	}
	number := m.epoch + 1 + m.skew
	if m.granted.epoch >= number {
		if m.granted.to == m.self {
			number = m.granted.epoch // our own promise; reuse it
		} else {
			number = m.granted.epoch + 1
		}
		if number <= m.epoch {
			number = m.epoch + 1
		}
	}
	next := make(map[seq.NodeID]string, len(m.members)+len(added))
	for _, id := range m.order {
		if !removedSet[id] {
			next[id] = m.members[id]
		}
	}
	for n, a := range added {
		next[n] = a
	}
	u := m.buildUpdateFor(number, next)
	// Resume grants: a joiner whose durable front is close enough to
	// the epoch baseline that every gap body is still inside the ring's
	// retained repair windows may continue its log instead of
	// restarting at the baseline.
	for _, n := range sortedIDs(added) {
		if f := m.pendingJoinFront[n]; f > 0 && f <= u.Baseline && u.Baseline-f <= m.resumeHorizon() {
			u.Resume = append(u.Resume, msg.ResumeEntry{Node: n, Front: f})
		}
	}
	if isMerge {
		u.Merge = true
		if te, _, ok := m.ne.TokenStamp(); ok {
			u.MergeTokenEpoch = te
		}
	}
	p := &proposal{
		epoch:    number,
		base:     m.epoch,
		born:     now,
		update:   u,
		removed:  removed,
		added:    added,
		hadDead:  hadDead,
		isMerge:  isMerge,
		voters:   append([]seq.NodeID(nil), m.order...),
		voterSet: make(map[seq.NodeID]bool, len(m.order)),
		votes:    map[seq.NodeID]bool{m.self: true},
		need:     len(m.order)/2 + 1,
	}
	for _, v := range p.voters {
		p.voterSet[v] = true
	}
	m.granted.epoch, m.granted.to = number, m.self // the self-vote, through the ledger
	return p
}

// refreshProposal re-derives the staged delta: aborts when it emptied
// (a suspect recovered), rebuilds when it changed (another member
// died, a merge arrived). Collected votes carry over — grants are
// content-free promises on the epoch NUMBER, and the voter set is the
// unchanged previous-epoch membership.
func (m *Membership) refreshProposal(now sim.Time) {
	old := m.prop
	fresh := m.buildProposal(now)
	if fresh == nil {
		m.prop = nil
		return
	}
	if sameDelta(old, fresh) && fresh.epoch == old.epoch {
		return
	}
	if fresh.epoch == old.epoch {
		// Same number: carried grants are still promises on it.
		fresh.votes = old.votes
		fresh.born = old.born
	}
	m.prop = fresh
	m.checkQuorum()
}

// resumeHorizon bounds how far behind the coordinator's front a durable
// log may be and still be repairable: members retain delivered bodies
// for RetainExtra slots below their fronts, and ¾ of that leaves margin
// for the stream advancing while the join handshake completes. A gap
// beyond the horizon can never be Nack-repaired — the member rejoins
// fresh at the baseline and the discarded range is reported.
func (m *Membership) resumeHorizon() seq.GlobalSeq {
	re := m.e.Cfg.RetainExtra
	if re <= 0 {
		return 0
	}
	return seq.GlobalSeq(re) * 3 / 4
}

func sortedIDs(set map[seq.NodeID]string) []seq.NodeID {
	ids := make([]seq.NodeID, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func sameDelta(a, b *proposal) bool {
	if len(a.removed) != len(b.removed) || len(a.added) != len(b.added) {
		return false
	}
	for i := range a.removed {
		if a.removed[i] != b.removed[i] {
			return false
		}
	}
	for n, addr := range a.added {
		if b.added[n] != addr {
			return false
		}
	}
	return true
}

// pushVotes (re)solicits grants from voters that have not granted yet.
func (m *Membership) pushVotes() {
	for _, p := range m.prop.voters {
		if p == m.self || m.prop.votes[p] {
			continue
		}
		m.e.Net.Send(m.self, p, &msg.QuorumVote{
			Group: m.e.Group, Epoch: m.prop.epoch, Base: m.prop.base,
			Proposer: m.self, Voter: p,
		})
	}
}

func (m *Membership) handleVote(v *msg.QuorumVote) {
	if v.Granted {
		m.handleVoteGrant(v)
	} else {
		m.handleVoteReq(v)
	}
}

// handleVoteReq answers a proposer's solicitation. Voters answer
// regardless of lame/leaving state — a minority member's grant is what
// lets a 2-2-1 split's largest fragment commit, and a leaver's grant
// is what lets a 2-ring process its own departure. The ledger keeps
// the safety invariant: one epoch number, at most one proposer.
func (m *Membership) handleVoteReq(v *msg.QuorumVote) {
	if v.Voter != m.self || v.Proposer == seq.None {
		return
	}
	if v.Base < m.epoch {
		// Stale proposer (it missed a committed epoch, so its voter set
		// is out of date): catch it up instead of granting.
		if m.joined && !m.evicted {
			if _, ok := m.members[v.Proposer]; ok {
				m.sendUpdate(v.Proposer)
			}
		}
		return
	}
	if v.Base > m.epoch || v.Epoch <= v.Base {
		// We are the laggard — our next heartbeat draws the committed
		// epoch — or the number is malformed.
		return
	}
	if v.Epoch < m.granted.epoch {
		return // conservatively refuse anything below the highest promise
	}
	if v.Epoch == m.granted.epoch && m.granted.to != seq.None && m.granted.to != v.Proposer {
		return // this epoch number is promised to someone else
	}
	m.granted.epoch = v.Epoch
	m.granted.to = v.Proposer
	if _, ok := m.members[v.Proposer]; !ok {
		return
	}
	m.e.Net.Send(m.self, v.Proposer, &msg.QuorumVote{
		Group: m.e.Group, Epoch: v.Epoch, Base: v.Base,
		Proposer: v.Proposer, Voter: m.self, Granted: true,
	})
}

func (m *Membership) handleVoteGrant(v *msg.QuorumVote) {
	p := m.prop
	if p == nil || v.Epoch != p.epoch || v.Proposer != m.self {
		return
	}
	if !p.voterSet[v.Voter] || p.votes[v.Voter] {
		return
	}
	p.votes[v.Voter] = true
	m.checkQuorum()
}

// checkQuorum commits the staged proposal once a majority of the
// previous epoch's membership has granted. Reports whether it did.
func (m *Membership) checkQuorum() bool {
	p := m.prop
	if p == nil || len(p.votes) < p.need {
		return false
	}
	m.prop = nil
	m.commit(p)
	return true
}

// commit makes a quorum-approved epoch real: disseminate it, then adopt
// it through applyUpdate, as every other member does. What stays here is
// the coordinator's own: the merge count and the heal's end, and the
// Token-Loss signal when the epoch evicted a suspect. A leaving
// coordinator sends its farewell once, like any epoch: a survivor that
// missed it keeps heartbeating the leaver, which answers from Recv.
func (m *Membership) commit(p *proposal) {
	u := p.update
	if p.isMerge {
		m.tel.merges.Inc()
		if m.healStartAt != 0 && m.healDoneAt == 0 {
			m.healDoneAt = m.e.Scheduler().Now()
			m.tel.emit("merge-heal", u.Epoch, (m.healDoneAt - m.healStartAt).String())
		}
	}
	m.sendAll(u)
	for _, id := range p.removed { // a leaver may go now, not on its next LeaveReq
		if id != m.self && m.pendingLeave[id] {
			m.sendUpdateTo(id, m.members[id], u)
		}
	}
	m.applyUpdate(u)
	if p.hadDead && !m.evicted {
		// The departed may have held the token; OrdersWell filters the
		// signal when circulation is demonstrably healthy.
		m.e.OnTokenLoss(m.self)
	}
}

func (m *Membership) buildUpdateFor(epoch uint64, members map[seq.NodeID]string) *msg.RingUpdate {
	u := &msg.RingUpdate{Group: m.e.Group, Epoch: epoch, Coord: m.self, Baseline: m.ne.MQ().Front()}
	ids := make([]seq.NodeID, 0, len(members))
	for id := range members {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		addr := members[id]
		if id == m.self {
			addr = m.addr
		}
		u.Members = append(u.Members, msg.MemberAddr{Node: id, Addr: addr})
	}
	return u
}

func (m *Membership) sendAll(u *msg.RingUpdate) {
	for _, ma := range u.Members {
		if ma.Node != m.self {
			m.sendUpdateTo(ma.Node, ma.Addr, u)
		}
	}
}

func (m *Membership) sendUpdate(to seq.NodeID) {
	m.sendUpdateTo(to, m.members[to], m.lastUpdate)
}

// sendUpdateTo delivers one RingUpdate, admitting the recipient first
// (it may be a brand-new joiner).
func (m *Membership) sendUpdateTo(to seq.NodeID, addr string, u *msg.RingUpdate) {
	if _, ok := m.net.admit(to, addr); ok {
		m.e.Net.Send(m.self, to, u)
	}
}

// handleProbe reacts to a heartbeat from a NON-member: an evicted node
// probing across a healed partition (or resuming from a pause). The
// quorum-side coordinator answers from its graves map with a
// RingSummary — the merge offer. Rate-limited per peer.
func (m *Membership) handleProbe(from seq.NodeID, epoch uint64) {
	if !m.joined || m.evicted || m.lame || from == m.self {
		return
	}
	if m.coordinator() != m.self || epoch >= m.epoch {
		return
	}
	addr := m.graves[from]
	if addr == "" {
		return // a stranger, not a former member: ignore
	}
	now := m.e.Scheduler().Now()
	if last := m.lastSummary[from]; last != 0 && now-last < 2*m.cfg.Heartbeat {
		return
	}
	m.lastSummary[from] = now
	if _, ok := m.net.admit(from, addr); !ok {
		return
	}
	m.markHealStart(now)
	rs := &msg.RingSummary{Group: m.e.Group, From: m.self, Epoch: m.epoch, Front: m.ne.MQ().Front()}
	if m.OrderHash != nil {
		rs.OrderHash = m.OrderHash()
	}
	if te, th, ok := m.ne.TokenStamp(); ok {
		rs.TokenEpoch, rs.TokenHops = te, th
	}
	m.e.Net.Send(m.self, from, rs)
}

// handleRingSummary is the minority side of the heal handshake: a
// quorum-side coordinator reports a higher epoch, so its ring won.
// Run Multiple-Token resolution (destroy any stale held token, arm the
// filter window) and ask to be spliced back in.
func (m *Membership) handleRingSummary(rs *msg.RingSummary) {
	if !m.joined || m.evicted || rs.From == m.self {
		return
	}
	if rs.Epoch <= m.epoch {
		return
	}
	if rs.TokenEpoch != 0 {
		m.ne.DiscardTokenBelow(rs.TokenEpoch)
	}
	m.e.OnMultipleToken(m.self)
	m.markHealStart(m.e.Scheduler().Now())
	mr := &msg.MergeReq{Group: m.e.Group, Node: m.self, Addr: m.addr, Epoch: m.epoch, Front: m.ne.MQ().Front()}
	if m.OrderHash != nil {
		mr.OrderHash = m.OrderHash()
	}
	if te, th, ok := m.ne.TokenStamp(); ok {
		mr.TokenEpoch, mr.TokenHops = te, th
	}
	m.e.Net.Send(m.self, rs.From, mr)
}

// handleMergeReq stages a returning member for readmission at the next
// quorum epoch (coordinator) or forwards it inward.
func (m *Membership) handleMergeReq(mr *msg.MergeReq) {
	if !m.joined || m.evicted || m.lame || mr.Node == m.self || mr.Node == seq.None {
		return
	}
	if m.coordinator() != m.self {
		m.e.Net.Send(m.self, m.coordinator(), mr)
		return
	}
	if _, ok := m.members[mr.Node]; ok {
		m.sendUpdate(mr.Node) // already spliced; its epoch is in flight
		return
	}
	if mr.Addr == "" {
		return
	}
	m.pendingMerge[mr.Node] = mr.Addr
	m.coordinate(m.e.Scheduler().Now())
}

// handleJoinReq stages a joiner for the next quorum epoch (coordinator)
// or forwards the request toward the coordinator. Forwarding strictly
// decreases the coordinator id, so relay chains terminate.
func (m *Membership) handleJoinReq(jr *msg.JoinReq) {
	if m.evicted || !m.joined || m.lame || jr.Node == m.self || jr.Node == seq.None {
		return
	}
	if m.coordinator() != m.self {
		m.e.Net.Send(m.self, m.coordinator(), jr)
		return
	}
	if _, ok := m.members[jr.Node]; ok {
		// Duplicate solicitation: the grant (or its ack) is still in
		// flight — resend the current epoch to the joiner.
		m.sendUpdate(jr.Node)
		return
	}
	if jr.Addr == "" {
		return
	}
	m.pendingJoin[jr.Node] = jr.Addr
	m.pendingJoinFront[jr.Node] = jr.Front
	m.coordinate(m.e.Scheduler().Now())
}

// handleLeaveReq stages a gracefully-departing member's eviction
// (coordinator) or forwards the announcement inward.
func (m *Membership) handleLeaveReq(lr *msg.LeaveReq) {
	if m.evicted || !m.joined || m.lame || lr.Node == seq.None {
		return
	}
	if m.coordinator() != m.self {
		m.e.Net.Send(m.self, m.coordinator(), lr)
		return
	}
	if _, ok := m.members[lr.Node]; !ok {
		// Already evicted: the farewell may have been lost — answer the
		// retry with the excluding epoch so the leaver can stand down.
		if m.net.peers[lr.Node] {
			m.e.Net.Send(m.self, lr.Node, m.lastUpdate)
		}
		return
	}
	m.pendingLeave[lr.Node] = true
	m.coordinate(m.e.Scheduler().Now())
}

// applyUpdate adopts an epoch if it is newer than ours: one received, or
// one this node just committed as coordinator.
func (m *Membership) applyUpdate(u *msg.RingUpdate) {
	if m.evicted || u.Epoch <= m.epoch {
		return
	}
	if m.prop != nil && u.Epoch >= m.prop.epoch {
		m.prop = nil // someone else committed first
	}
	inRing := false
	for _, ma := range u.Members {
		if ma.Node == m.self {
			inRing = true
			break
		}
	}
	old := m.members
	m.members = make(map[seq.NodeID]string, len(u.Members))
	for _, ma := range u.Members {
		m.members[ma.Node] = ma.Addr
	}
	m.epoch = u.Epoch
	m.skew = 0
	m.reorder()
	m.lastUpdate = u
	if !inRing {
		m.evicted = true
		if m.OnEvicted != nil {
			m.OnEvicted()
		}
		return
	}
	var removed []seq.NodeID
	for id := range old {
		if _, ok := m.members[id]; !ok && id != m.self {
			removed = append(removed, id)
			// Remember evicted addresses for the heal path, but not
			// graceful leavers': their pre-farewell heartbeats must not
			// read as partition probes and resurrect them.
			if a := old[id]; a != "" && !m.pendingLeave[id] {
				m.graves[id] = a
			}
		}
	}
	sort.Slice(removed, func(i, j int) bool { return removed[i] < removed[j] })
	for _, d := range removed {
		delete(m.pendingLeave, d)
	}
	for _, ma := range u.Members {
		delete(m.pendingJoin, ma.Node)
		delete(m.pendingMerge, ma.Node)
		delete(m.pendingJoinFront, ma.Node)
	}
	wasJoined := m.joined
	wasLame := m.lame
	m.joined = true
	var resumed seq.GlobalSeq
	if !wasJoined {
		for _, re := range u.Resume {
			if re.Node == m.self {
				resumed = re.Front
			}
		}
		if resumed > 0 {
			// Resume grant: release the virgin MQ to our own durable
			// front — delivery continues at resumed+1 and the gap up to
			// the ring's live position backfills through Nack repair
			// from the peers' retained windows.
			m.tel.emit("resume", uint64(resumed), fmt.Sprintf("baseline %d", u.Baseline))
			m.ne.JumpTo(resumed)
		} else {
			// Set the stream baseline before the splice makes this node
			// a top-ring member: delivery starts at Baseline+1.
			m.tel.emit("fresh-join", uint64(u.Baseline), "")
			m.ne.JumpTo(u.Baseline)
			if f := m.ResumeFront; f > 0 && f < u.Baseline && m.OnDiscarded != nil {
				// We held a durable log but the coordinator saw the gap
				// as beyond the retained horizon: the range between our
				// log and the baseline is gone for good.
				m.OnDiscarded(f+1, u.Baseline)
			}
		}
	}
	m.applyLocal(u, removed)
	if u.Merge {
		// Token-side reconciliation runs at EVERY applier: tokens below
		// the surviving stamp die, and the filter window arms so the
		// dead ring's stragglers are absorbed, not double-assigned.
		if u.MergeTokenEpoch != 0 {
			m.ne.DiscardTokenBelow(u.MergeTokenEpoch)
		}
		m.e.OnMultipleToken(m.self)
	}
	if wasLame {
		now := m.e.Scheduler().Now()
		m.exitLame(now, u.Baseline)
	}
	if !wasJoined {
		// A joiner's spawn-time clock pings died as unknown-sender frames
		// at the seeds; now that membership is mutual, calibrate against
		// every member (applyLocal just reset every failure-detector
		// window, so all are live) so cross-process latency samples
		// materialize.
		m.net.calibrate(m.AppendLivePeers(nil))
		if m.OnJoined != nil {
			m.OnJoined(u.Baseline, resumed)
		}
	}
}

// applyLocal makes the current member set real: topology ring, substrate
// peers, neighbor refresh, and severed state toward removed members (who
// linger as lame ducks before retirement). Every member's failure
// detector restarts with a fresh window — without this, a merged-back
// member would be instantly re-suspected off its pre-partition lastHeard.
func (m *Membership) applyLocal(u *msg.RingUpdate, removed []seq.NodeID) {
	h := m.e.H
	now := m.e.Scheduler().Now()
	wasVirgin := m.ringID == 0 || h.Ring(m.ringID) == nil
	var met []seq.NodeID
	for _, id := range m.order {
		if id == m.self {
			delete(m.graves, id)
			continue
		}
		if h.Node(id) == nil {
			h.AddNode(id, topology.TierBR)
		}
		if fresh, ok := m.net.admit(id, m.members[id]); fresh && ok {
			met = append(met, id)
		}
		m.det.Forget(id)
		m.det.Watch(id, now)
		delete(m.graves, id)
	}
	// Calibrate the clock offset toward members met after spawn (a joiner
	// granted mid-run), so cross-process latency samples stay
	// offset-corrected.
	m.net.calibrate(met)
	if wasVirgin {
		// Joiner's first epoch: its hierarchy has no top ring yet.
		if r, err := h.NewRing(topology.TierBR, m.order...); err == nil {
			m.ringID = r.ID
		}
	} else {
		h.ReformRing(m.ringID, m.order[0], m.order...)
	}
	for _, dead := range removed {
		if h.Node(dead) != nil {
			h.RemoveNode(dead)
		}
	}
	m.e.OnTopologyChanged(m.self)
	const lameDuck = 3 * sim.Second // how long a removed member stays in the substrate's peer set
	for _, dead := range removed {
		m.tel.evictions.Inc()
		m.tel.emit("evict", uint64(dead), fmt.Sprintf("epoch %d", u.Epoch))
		m.ne.DropPeer(dead)
		m.det.Forget(dead)
		if m.OnRemoved != nil {
			m.OnRemoved(dead)
		}
		dead := dead
		// Lame-duck retirement: keep the corpse addressable while drains
		// (a leaver's token-handoff ack, straggler Nack service) finish.
		m.e.Scheduler().After(lameDuck, func() {
			if _, back := m.members[dead]; back {
				return // rejoined meanwhile
			}
			m.net.retire(dead)
		})
	}
	m.tel.epochsApplied.Inc()
	m.tel.epoch.Set(int64(u.Epoch))
	m.tel.emit("epoch-commit", u.Epoch, fmt.Sprintf("%d members, %d removed", len(m.order), len(removed)))
}
