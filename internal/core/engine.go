package core

import (
	"fmt"
	"math"

	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/transport"
)

// Network is everything the protocol core asks of whatever carries it,
// written down once: the three message-path calls a reliable hop uses
// (transport.Network), endpoint and link bookkeeping for the nodes the
// engine spawns, crash injection, and the send accounting behind
// ControlReport. *netsim.Network is the simulated implementation; the
// wire plane supplies the other over its shared outbox, where every peer
// is one socket hop away and the link and crash calls have nothing to do.
type Network interface {
	transport.Network
	Register(id seq.NodeID, h netsim.Handler)
	Unregister(id seq.NodeID)
	Connect(a, b seq.NodeID, p netsim.LinkParams)
	Disconnect(a, b seq.NodeID)
	Linked(from, to seq.NodeID) bool
	Crash(id seq.NodeID)
	Recover(id seq.NodeID)
	Stats() netsim.Stats
}

var _ Network = (*netsim.Network)(nil)

// Telemetry is the engine's live-instrumentation bundle: a set of
// possibly-nil instruments owned by an external registry (the wire
// daemon's admin plane). Every instrument method is nil-receiver-safe,
// so the zero value — what the simulator and benchmarks run with — is
// fully inert: each instrumented site costs one predictable branch and
// the protocol's behavior stays byte-identical. Set before Start.
type Telemetry struct {
	// Hot path: delivery front and token circulation. (Delivered bodies
	// are counted by the wire layer's OnDeliver hook, where the count is
	// defined to equal the trace-line count; the front gauge here also
	// advances over really-lost gaps, which deliver nothing.)
	Front         *telemetry.Gauge   // contiguous delivery front (global seq)
	TokenHops     *telemetry.Counter // token forwards to the ring successor
	TokenRegens   *telemetry.Counter // Token-Regeneration traversals started
	TokenDestroys *telemetry.Counter // token copies swallowed (dup/park/filter)

	// Token deltas (tokendelta.go): hops that carried the whole table and
	// deltas refused, by reason (indexed by TokenResync; SenderResyncs and
	// ReceiverResyncs list the reasons each can have), and the encoded
	// bytes of every hop's first transmission.
	TokenFullSends    [NumTokenResyncs]*telemetry.Counter
	TokenDeltaRefused [NumTokenResyncs]*telemetry.Counter
	TokenHopBytes     *telemetry.Counter

	// Repair escalation tiers: ranged Nacks to the predecessor,
	// broadcast Nacks to the whole ring, Nacks served for peers, and
	// really-lost verdicts (the give-up end of the escalation).
	NacksRanged    *telemetry.Counter
	NacksBroadcast *telemetry.Counter
	NacksServed    *telemetry.Counter
	ReallyLost     *telemetry.Counter

	// Hop retransmissions of the reliable streams by cause: the timer,
	// or a receiver's gap report (transport.Sender.Repair); and the token
	// courier's current timeout, in sim.Time units (µs).
	HopTimeoutRetransmits *telemetry.Counter
	HopGapRetransmits     *telemetry.Counter
	TokenRTO              *telemetry.Gauge

	// Events receives slow-path protocol transitions (regens, parks,
	// really-lost verdicts); nil outside the wire daemon.
	Events *telemetry.Ring
	Node   uint32 // stamped on emitted events
	Group  uint32

	// Trace receives per-message lifecycle spans for deterministically
	// sampled trace keys; nil outside the wire daemon (the simulator and
	// benchmarks pay one branch per hook and emit nothing).
	Trace *telemetry.Tracer
}

// Emit records one protocol event (no-op when no ring is attached).
func (t *Telemetry) Emit(typ string, value uint64, detail string) {
	t.Events.Emit(telemetry.Event{Node: t.Node, Group: t.Group, Type: typ, Value: value, Detail: detail})
}

// MHIDOffset maps a HostID into the netsim NodeID space (MHs need network
// identities for the AP↔MH wireless hop).
const MHIDOffset = 1 << 20

// MHNodeID returns the netsim identity of a mobile host.
func MHNodeID(h seq.HostID) seq.NodeID { return seq.NodeID(uint32(h) + MHIDOffset) }

// HostOf inverts MHNodeID (0 if id is not an MH identity).
func HostOf(id seq.NodeID) seq.HostID {
	if uint32(id) > MHIDOffset {
		return seq.HostID(uint32(id) - MHIDOffset)
	}
	return 0
}

// Engine owns one protocol instance: the hierarchy, the network it runs
// over, all NE state machines and MH receivers, and the workload
// interface. It is the unit the benchmarks and examples drive.
type Engine struct {
	Group seq.GroupID
	Cfg   Config
	Net   Network
	H     *topology.Hierarchy
	// Log is the simulator's exact delivery oracle: every MH's stream
	// cross-checked against every other's. MHs join and leave it with
	// the hierarchy, and its horizon is held at joinFloor. StartLocal
	// clears it — a single-process slice has no MHs to cross-check, and
	// its delivery stream is accounted by whoever hooks OnDeliver.
	Log *metrics.DeliveryLog

	nes   map[seq.NodeID]*NE
	mhs   map[seq.HostID]*MH
	local map[seq.NodeID]seq.LocalSeq // per-corresponding-node source counters

	// WiredLink and WirelessLink are the parameters used when the
	// engine wires adjacencies; mutable before Start.
	WiredLink    netsim.LinkParams
	WirelessLink netsim.LinkParams

	// OnDeliver, when set, observes every node-level delivery: it fires
	// as an NE's delivery front passes each received message, in global
	// order. In the simulator application delivery happens at MHs and
	// this stays nil; real deployments (cmd/ringnetd) run protocol nodes
	// as the end consumers and hook their delivery stream here. Set it
	// before Start/StartLocal.
	OnDeliver func(at seq.NodeID, d *msg.Data)

	// OnLost, when set, observes every really-lost verdict a node
	// applies: the slot at global g is skipped forever because its body
	// cannot be recovered from any live member (give-up rounds
	// exhausted, source evicted) or because an upstream member's Skip
	// frame propagated such a verdict. src/local identify the
	// assignment when it is still resolvable (src == seq.None when the
	// assignment died with its source's last token copy). The wire path
	// routes these into the per-member dead-letter queue; the simulator
	// leaves it nil.
	OnLost func(at seq.NodeID, g seq.GlobalSeq, src seq.NodeID, local seq.LocalSeq, reason string)

	// Tel is the live-instrumentation bundle; the zero value (simulator,
	// benchmarks) is inert. Set before Start.
	Tel Telemetry

	started bool
	// stepped is set by StartLocal: its NE arms no τ ticker, and the
	// host runs the Order-Assignment pass itself (NE.OrderAssign).
	stepped bool
}

// NewEngine builds an engine over an existing hierarchy and network.
func NewEngine(group seq.GroupID, cfg Config, net Network, h *topology.Hierarchy) *Engine {
	e := &Engine{
		Group:        group,
		Cfg:          cfg,
		Net:          net,
		H:            h,
		Log:          metrics.NewDeliveryLog(),
		nes:          make(map[seq.NodeID]*NE),
		mhs:          make(map[seq.HostID]*MH),
		local:        make(map[seq.NodeID]seq.LocalSeq),
		WiredLink:    netsim.DefaultWired,
		WirelessLink: netsim.DefaultWireless,
	}
	e.Log.Floor = e.joinFloor
	return e
}

// Scheduler returns the virtual-time scheduler.
func (e *Engine) Scheduler() *sim.Scheduler { return e.Net.Scheduler() }

// NE returns the state machine for a network entity.
func (e *Engine) NE(id seq.NodeID) *NE { return e.nes[id] }

// MHOf returns the receiver for a host.
func (e *Engine) MHOf(h seq.HostID) *MH { return e.mhs[h] }

// NEs returns all NE ids (unsorted).
func (e *Engine) NEs() []seq.NodeID {
	out := make([]seq.NodeID, 0, len(e.nes))
	for id := range e.nes {
		out = append(out, id)
	}
	return out
}

// Start instantiates NEs for every node in the hierarchy, MH receivers
// for every attached host, wires the network links implied by the
// topology, registers handlers, and injects the ordering token at the top
// ring's leader.
func (e *Engine) Start() error {
	if e.started {
		return fmt.Errorf("core: engine already started")
	}
	e.started = true
	for _, id := range e.H.NodeIDs() {
		if err := e.spawnNE(id); err != nil {
			return err
		}
	}
	// Wire ring adjacencies and parent-child links.
	for _, rid := range e.H.Rings() {
		r := e.H.Ring(rid)
		nodes := r.Nodes()
		for i, a := range nodes {
			b := nodes[(i+1)%len(nodes)]
			if a != b {
				e.Net.Connect(a, b, e.WiredLink)
			}
		}
	}
	for _, id := range e.H.NodeIDs() {
		n := e.H.Node(id)
		if n.Parent != seq.None {
			e.Net.Connect(id, n.Parent, e.WiredLink)
		}
		for _, c := range n.Candidates {
			e.Net.Connect(id, c, e.WiredLink)
		}
	}
	// Spawn MH receivers.
	for _, ap := range e.H.NodeIDs() {
		if e.H.Node(ap).Tier != topology.TierAP {
			continue
		}
		for _, h := range e.H.HostsAt(ap) {
			if err := e.spawnMH(h, ap, 0); err != nil {
				return err
			}
		}
	}
	// Refresh neighbor views now that everything exists. Iterate in
	// sorted ID order: refreshing can send (Join couriers), and sends
	// draw from the loss/jitter RNG stream, so map order here would make
	// whole runs nondeterministic.
	for _, id := range e.H.NodeIDs() {
		e.nes[id].refreshNeighbors()
	}
	// Inject the ordering token at the top-ring leader.
	if top := e.H.TopRing(); top != nil {
		leader := e.nes[top.Leader()]
		tok := seq.NewToken(e.Group)
		e.Scheduler().After(0, func() { leader.handleToken(leader.id, tok) })
	}
	return nil
}

// StartLocal instantiates ONLY the network entity for id — the
// single-process slice of a multi-process deployment (cmd/ringnetd).
// Every process builds the identical hierarchy from the shared ring
// config and spawns just its own node; the engine's Network carries sends
// to the other members, which live in other processes. The ordering token
// is injected only in the top-ring leader's process, so exactly one token
// is born cluster-wide. The node arms no τ Order-Assignment ticker: a
// token or a TokenAck already runs the pass (OpportunisticAssign) and a
// WQ body stamps its own source, so the caller runs the pass on its own
// clock (NE.OrderAssign) only for what time alone settles: Nack
// timeouts, give-up rounds, resuming after a full MQ.
func (e *Engine) StartLocal(id seq.NodeID) error {
	if e.started {
		return fmt.Errorf("core: engine already started")
	}
	if e.H.Node(id) == nil {
		return fmt.Errorf("core: unknown node %v", id)
	}
	e.started, e.stepped = true, true
	e.Log = nil
	if err := e.spawnNE(id); err != nil {
		return err
	}
	e.nes[id].refreshNeighbors()
	if top := e.H.TopRing(); top != nil && top.Leader() == id {
		leader := e.nes[id]
		tok := seq.NewToken(e.Group)
		e.Scheduler().After(0, func() { leader.handleToken(leader.id, tok) })
	}
	return nil
}

func (e *Engine) spawnNE(id seq.NodeID) error {
	if _, dup := e.nes[id]; dup {
		return fmt.Errorf("core: NE %v already exists", id)
	}
	// NE identities must stay below the MH offset: the WT keys hosts
	// through MHNodeID into the disjoint upper range, so an NE there
	// would collide with host progress tracking (and MH routing).
	if uint32(id) >= MHIDOffset {
		return fmt.Errorf("core: NE id %v overlaps the MH identity range (≥ %d)", id, MHIDOffset)
	}
	ne := newNE(e, id)
	e.nes[id] = ne
	e.Net.Register(id, ne)
	return nil
}

func (e *Engine) spawnMH(h seq.HostID, ap seq.NodeID, start seq.GlobalSeq) error {
	if _, dup := e.mhs[h]; dup {
		return fmt.Errorf("core: MH %v already exists", h)
	}
	m := newMH(e, h, ap)
	m.last = start
	if e.Log != nil {
		e.Log.Join(uint32(h), start)
	}
	e.mhs[h] = m
	e.Net.Register(MHNodeID(h), m)
	e.Net.Connect(MHNodeID(h), ap, e.WirelessLink)
	if ne := e.nes[ap]; ne != nil {
		ne.attachHost(h, start)
	}
	return nil
}

// AddMH attaches a new host to an AP at runtime (join). Join-point
// semantics: the new member receives the stream from the group's current
// position onward (an AP joining the tree itself starts at the current
// position via the Join/Jump protocol).
func (e *Engine) AddMH(h seq.HostID, ap seq.NodeID) error {
	if err := e.H.AttachMH(h, ap); err != nil {
		return err
	}
	ne := e.nes[ap]
	if ne != nil && !ne.active {
		if _, dup := e.mhs[h]; dup {
			return fmt.Errorf("core: MH %v already exists", h)
		}
		m := newMH(e, h, ap)
		if e.Log != nil {
			// Its start is the Jump baseline still to come, at or
			// above joinFloor; until then the log holds it at the
			// horizon.
			e.Log.Join(uint32(h), 0)
		}
		e.mhs[h] = m
		e.Net.Register(MHNodeID(h), m)
		e.Net.Connect(MHNodeID(h), ap, e.WirelessLink)
		ne.attachHostFresh(h)
		return nil
	}
	start := seq.GlobalSeq(0)
	if ne != nil {
		start = ne.mq.Front()
	}
	return e.spawnMH(h, ap, start)
}

// joinFloor is the lowest start AddMH can hand a fresh MH now: an
// active AP's MQ front, or, at a virgin AP, its parent's front, which
// answers the AP's Join with the Jump baseline. Log's horizon is held
// at it, so a joiner's stream stays checkable. A lingered-out AP is
// left out: a fresh MH there waits at global 0 below the AP's resumed
// stream and delivers nothing.
func (e *Engine) joinFloor() seq.GlobalSeq {
	floor := seq.GlobalSeq(math.MaxUint64)
	for _, n := range e.nes {
		if !n.isAP || n.failed {
			continue
		}
		switch {
		case n.active:
			floor = min(floor, n.mq.Front())
		case n.mq.Rear() == 0:
			if p := e.nes[n.view.Parent]; p != nil {
				floor = min(floor, p.mq.Front())
			}
		}
	}
	return floor
}

// RemoveMH detaches a host (leave). Its receiver is unregistered.
func (e *Engine) RemoveMH(h seq.HostID) {
	ap := e.H.DetachMH(h)
	if ne := e.nes[ap]; ne != nil {
		ne.detachHost(h)
	}
	if m := e.mhs[h]; m != nil {
		m.close()
		if e.Log != nil {
			e.Log.Leave(uint32(h))
		}
	}
	delete(e.mhs, h)
	e.Net.Unregister(MHNodeID(h))
}

// Handoff moves host h from its current AP to ap. The MH announces its
// delivery high-water mark to the new AP (HandoffNotify) so delivery
// resumes without duplication; the old AP is told to drop the MH. When
// reserve is true the new AP also asks its candidate neighbors to
// pre-establish multicast paths (paper §3 smooth handoff).
func (e *Engine) Handoff(h seq.HostID, ap seq.NodeID, reserve bool) error {
	m := e.mhs[h]
	if m == nil {
		return fmt.Errorf("core: unknown host %v", h)
	}
	old := e.H.APOf(h)
	if old == ap {
		return nil
	}
	if e.H.Node(ap) == nil || e.H.Node(ap).Tier != topology.TierAP {
		return fmt.Errorf("core: handoff target %v is not an AP", ap)
	}
	e.H.DetachMH(h)
	if err := e.H.AttachMH(h, ap); err != nil {
		return err
	}
	// Wireless association moves.
	e.Net.Disconnect(MHNodeID(h), old)
	e.Net.Connect(MHNodeID(h), ap, e.WirelessLink)
	m.handoff(old, ap, reserve)
	return nil
}

// Submit injects one application message at its corresponding top-ring
// node (the paper's "interface mechanism": at most one source per
// top-ring node). It returns the assigned local sequence number.
func (e *Engine) Submit(corr seq.NodeID, payload []byte) (seq.LocalSeq, error) {
	ne := e.nes[corr]
	if ne == nil {
		return 0, fmt.Errorf("core: unknown corresponding node %v", corr)
	}
	if !ne.view.IsTop {
		return 0, fmt.Errorf("core: %v is not in the top ring", corr)
	}
	e.local[corr]++
	l := e.local[corr]
	e.Tel.Trace.Span(telemetry.StagePublish, uint32(e.Group), uint32(corr), uint64(l), 0, 0)
	if e.Log != nil {
		e.Log.Sent(corr, l, e.Scheduler().Now())
	}
	e.Scheduler().After(0, func() { ne.acceptSource(l, payload) })
	return l, nil
}

// FailNode crashes a network entity (it stops sending/receiving until
// RecoverNode). Topology repair is the membership protocol's job.
func (e *Engine) FailNode(id seq.NodeID) {
	e.Net.Crash(id)
	if ne := e.nes[id]; ne != nil {
		ne.failed = true
	}
}

// RecoverNode restores a crashed NE with cleared protocol state (it
// rejoins like a fresh node; the membership protocol re-splices it).
func (e *Engine) RecoverNode(id seq.NodeID) {
	e.Net.Recover(id)
	if ne := e.nes[id]; ne != nil {
		ne.reset()
	}
}

// --- hooks called by the membership protocol ---

// OnTopologyChanged tells the affected NEs to re-read their neighbor
// views and retarget their senders after the hierarchy was mutated.
func (e *Engine) OnTopologyChanged(affected ...seq.NodeID) {
	for _, id := range affected {
		if ne := e.nes[id]; ne != nil && !ne.failed {
			ne.refreshNeighbors()
		}
	}
}

// OnTokenLoss delivers the membership protocol's Token-Loss signal
// (paper §4.2.1) to a top-ring node.
func (e *Engine) OnTokenLoss(at seq.NodeID) {
	if ne := e.nes[at]; ne != nil && !ne.failed {
		ne.onTokenLoss()
	}
}

// OnMultipleToken delivers the Multiple-Token signal to a node of a
// freshly merged top ring.
func (e *Engine) OnMultipleToken(at seq.NodeID) {
	if ne := e.nes[at]; ne != nil && !ne.failed {
		ne.onMultipleToken()
	}
}

// EnsureLink wires a link with tier-appropriate parameters if absent
// (used by membership repair and mobility when adjacency changes).
func (e *Engine) EnsureLink(a, b seq.NodeID) {
	if a == b || a == seq.None || b == seq.None {
		return
	}
	if !e.Net.Linked(a, b) {
		p := e.WiredLink
		if HostOf(a) != 0 || HostOf(b) != 0 {
			p = e.WirelessLink
		}
		e.Net.Connect(a, b, p)
	}
}

// --- aggregate metrics ---

// BufferReport sums buffer occupancy statistics across NEs.
type BufferReport struct {
	PeakWQ      int // max over nodes of peak per-node WQ occupancy
	PeakMQ      int // max over nodes of peak per-node MQ live window
	SumWQPeak   int
	SumMQPeak   int
	Overflows   uint64
	Retransmits uint64
}

// Buffers gathers the buffer-bound metrics of Theorem 5.1.
func (e *Engine) Buffers() BufferReport {
	var r BufferReport
	for _, ne := range e.nes {
		if wq := ne.wq; wq != nil {
			p := wq.Peak()
			r.SumWQPeak += p
			if p > r.PeakWQ {
				r.PeakWQ = p
			}
		}
		p := ne.mq.PeakLen()
		r.SumMQPeak += p
		if p > r.PeakMQ {
			r.PeakMQ = p
		}
		r.Overflows += ne.mq.Overflows()
		r.Retransmits += ne.retransmissions()
	}
	return r
}

// ControlReport summarizes this run's control-plane vs data-plane
// message volume (acks, progress, nacks; control vs payload bytes).
func (e *Engine) ControlReport() metrics.ControlReport {
	st := e.Net.Stats()
	r := metrics.ControlReport{
		Acks:         st.ByKind[msg.KindAck],
		Progress:     st.ByKind[msg.KindProgress],
		Nacks:        st.ByKind[msg.KindNack],
		Heartbeats:   st.ByKind[msg.KindHeartbeat],
		ControlMsgs:  st.CtrlMsgs,
		ControlBytes: st.CtrlBytes,
		DataMsgs:     st.DataMsgs,
		DataBytes:    st.DataBytes,
	}
	if e.Log != nil {
		r.Delivered = e.Log.Delivered.Value()
	}
	return r
}

// TokenRounds returns the hop count of the token observed at the given
// node's latest sighting, for Torder measurement.
func (e *Engine) TokenRounds(at seq.NodeID) uint64 {
	if ne := e.nes[at]; ne != nil && ne.newToken != nil {
		return ne.newToken.Hops
	}
	return 0
}

// Quiesced reports whether all senders are drained and all MH receivers
// have empty reassembly buffers (used by tests to assert convergence).
func (e *Engine) Quiesced() bool {
	for _, ne := range e.nes {
		if ne.failed {
			continue
		}
		if ne.outstanding() > 0 {
			return false
		}
	}
	for _, m := range e.mhs {
		if len(m.pending) > 0 {
			return false
		}
	}
	return true
}
