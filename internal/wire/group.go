package wire

import (
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workload"
)

// protocolConfig is the core tuning for a real-socket deployment whose
// live membership runs on tun's timers: unbounded per-hop retries (the
// acceptance criterion is exact total order, not best-effort under
// give-up), a token-compaction cap of 256 entries over the last 1,024
// globals — every hop re-encodes and rebuilds the table, so the cap
// bounds that work; its bytes no longer matter much (≤ 6 per entry,
// msg.TestTokenBytesBound: under 1.6 KB of a 60 KB datagram budget) — and
// a deep retained window plus ranged Nacks so a member that fell behind a
// reconfiguration (ring repair re-routed its WQ feed, or it just joined)
// catches up from its predecessor's MQ in a few round trips. The retained
// window holds bodies only: each member's cumulative assignment table
// follows its delivery front, so it stays at the undelivered window
// however deep RetainExtra is.
//
// The Token-Loss threshold is at most suspect − heartbeat, so the one
// signal a live ring raises, at an eviction's commit, is not filtered
// when the token died with the evicted member: every survivor sighted it
// last by that death, at most a heartbeat after the member's last
// heartbeat, and the commit comes a suspect timeout after that. It stays
// 500 ms at the defaults (150/900) and at 100/600.
func protocolConfig(tun MemberTunables) core.Config {
	cfg := core.DefaultConfig()
	cfg.TokenLossThreshold = min(cfg.TokenLossThreshold, tun.Suspect-tun.Heartbeat)
	cfg.Hop.MaxRetries = 0
	// Unbounded retries need backoff: a peer seconds behind on a loaded
	// federated daemon is only buried deeper by fixed-20ms duplicates.
	cfg.Hop.BackoffCap = 500 * sim.Millisecond
	// The token courier times itself from its TokenAcks. Its floor is two
	// outbox windows: an ack can wait one window at each end of the hop,
	// so a shorter timeout would resend tokens that are merely batched.
	cfg.Hop.MinRTO = 2 * outboxWindow
	cfg.CompactAbove = 256
	cfg.CompactKeep = 1024
	cfg.RetainExtra = 4096
	cfg.NackWindow = 64
	cfg.NackBroadcastAfter = 3
	cfg.NackGiveUpRounds = 12
	// Idle rings slow their token to one hop per 50 ms: a federated
	// daemon hosts up to hundreds of groups, most quiet at any moment,
	// and constant-rate circulation would burn the whole CPU budget on
	// idle rotations. Worst-case re-wake cost is one stretched rotation
	// (ring size × 50 ms). A finished group's token idles the same way
	// until its daemon exits. Tau arms nothing here: the node StartLocal
	// spawns has no τ ticker, and the group's housekeeping step runs its
	// Order-Assignment pass.
	cfg.TokenIdleBackoff = 50 * sim.Millisecond
	return cfg
}

// ringGroup is one hosted ring group: its own engine, substrate over the
// shared outbox, membership plane, delivery sink (sink.go), workload, and
// lifecycle, all running on the daemon's one scheduler and driver. The
// federation (daemon.go) owns what is shared: the transport, the outbox,
// the scheduler and driver, and the ticks that step every group's
// lifecycle and flush every durable log. A group keeps no timer and no
// channel of its own for its lifecycle: the events that move it (the
// delivery that completes a stream, a Done from a peer) and the daemon's
// housekeeping tick call settle, and the phase it leaves behind is plain
// state that snapshot, ready and collect read on the driver. Static and
// live rings end by the same rule (locallyConverged).
type ringGroup struct {
	nd      *Node
	gc      GroupConfig
	gid     uint32
	self    seq.NodeID
	members []seq.NodeID

	sched *sim.Scheduler // the daemon's, shared by every group
	net   *outboxNet
	e     *core.Engine
	ne    *core.NE // the local node: the one NE this process runs
	ms    *Membership
	sink  *deliverySink // every delivery is accounted here and nowhere else
	peers []seq.NodeID
	tel   *groupTelemetry

	// Resume outcome. Driver goroutine only.
	resumedAt      seq.GlobalSeq
	discLo, discHi seq.GlobalSeq

	// The stream's opening, armed by start (or on joining) and brought
	// forward by openBy. Driver goroutine only.
	opening   sim.Timer // opens the stream; pending until it has
	ceilingAt sim.Time  // when opening fires unless brought forward

	// Lifecycle, advanced by settle. Driver goroutine only.
	src         *workload.Source // nil until the workload starts, or when sourcing nothing
	last        seq.LocalSeq     // the workload's last message, once submitted
	converged   bool             // delivered every live member's stream to its end; said Drained
	finished    bool             // converged, and no live peer needs this member any more
	left        bool             // evicted or left, and its couriers drained
	convergedAt sim.Time         // when it converged
	evictedAt   sim.Time         // when settle first saw the eviction
	beaconAt    sim.Time         // the last Done beacon
	beatAt      sim.Time         // the membership plane's last heartbeat round

	// End-of-run gossip. Driver goroutine only.
	ends        map[seq.NodeID]seq.GlobalSeq // where each member's stream ends (msg.Done), this one's too
	until       seq.GlobalSeq                // the largest of ends
	drainedFrom map[seq.NodeID]bool          // peers that said Drained
	heardAt     map[seq.NodeID]sim.Time      // each peer's last Done
	lastReply   map[seq.NodeID]sim.Time
	peerBuf     []seq.NodeID // livePeers' buffer
}

// Lifecycle timings. The daemon's housekeeping tick steps every group
// each stepEvery; the rest are thresholds step and settle check by
// elapsed time.
const (
	stepEvery   = 10 * sim.Millisecond
	beaconEvery = 100 * sim.Millisecond // Done gossip while a peer's end or Drained notice is missing
	// quiesce bounds an evicted member's leave-drain, the only wait for
	// outstanding retransmissions and the token transfer: its couriers
	// hand the token off to the ring it leaves.
	quiesce = 500 * sim.Millisecond
)

// newRingGroup assembles one group against the daemon's shared transport,
// outbox and scheduler: topology, engine, substrate peers, membership
// plane, and the group's receive hooks on the transport. The federation
// starts every group after the transport reader and the driver are up.
func newRingGroup(nd *Node, gc GroupConfig) (_ *ringGroup, err error) {
	cfg := nd.cfg
	g := &ringGroup{
		nd:          nd,
		gc:          gc,
		gid:         gc.ID,
		self:        nd.self,
		ends:        make(map[seq.NodeID]seq.GlobalSeq),
		drainedFrom: make(map[seq.NodeID]bool),
		heardAt:     make(map[seq.NodeID]sim.Time),
		lastReply:   make(map[seq.NodeID]sim.Time),
		tel:         nd.tel.group(gc.ID),
		sched:       nd.drv.sched,
	}
	if g.sink, err = newDeliverySink(gc.ID, g.self, g.sched, g.tel, gc.TracePath, gc.DataDir); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			g.sink.close()
		}
	}()
	g.sink.offsetOf = nd.tr.OffsetOf

	// Identical hierarchy in every process: one top ring of all members.
	// A joiner starts ringless; its first RingUpdate splices it in.
	g.members = []seq.NodeID{g.self}
	if !gc.Join {
		for _, p := range cfg.Peers {
			g.members = append(g.members, seq.NodeID(p.Node))
		}
	}
	slices.Sort(g.members)
	h := topology.New()
	var ringID topology.RingID
	for _, id := range g.members {
		if _, err := h.AddNode(id, topology.TierBR); err != nil {
			return nil, err
		}
	}
	if !gc.Join {
		top, err := h.NewRing(topology.TierBR, g.members...)
		if err != nil {
			return nil, err
		}
		ringID = top.ID
	}

	g.net = newOutboxNet(g.sched, nd.ob, g.gid, g.self)
	tun := MemberTunables{
		Heartbeat: sim.Time(cfg.HeartbeatMS) * sim.Millisecond,
		Suspect:   sim.Time(cfg.SuspectMS) * sim.Millisecond,
	}
	g.e = core.NewEngine(seq.GroupID(gc.ID), protocolConfig(tun), g.net, h)
	g.e.Tel = g.tel.coreTel(nd.tel.reg)
	g.e.Tel.TokenRTO.Set(int64(g.e.Cfg.Hop.RTO)) // until the first TokenAck is sampled

	g.e.OnDeliver = func(at seq.NodeID, d *msg.Data) {
		g.sink.deliver(at, d)
		g.passed(d.GlobalSeq, d.SourceNode, d.LocalSeq)
	}
	g.e.OnLost = func(at seq.NodeID, gs seq.GlobalSeq, src seq.NodeID, local seq.LocalSeq, reason string) {
		if g.sink.dlq != nil {
			g.sink.lost(at, gs, src, local, reason)
		}
		g.passed(gs, src, local)
	}

	// Every configured peer is reachable from the start: the ring's
	// members, or a joiner's seeds, which until its first splice hear
	// nothing from it but JoinReqs (its NE has no ring to send on).
	for _, p := range cfg.Peers {
		if p.Addr == "" {
			return nil, fmt.Errorf("wire: peer %d has no address", p.Node)
		}
		if _, ok := g.net.admit(seq.NodeID(p.Node), p.Addr); !ok {
			return nil, fmt.Errorf("wire: peer %d address %q does not resolve", p.Node, p.Addr)
		}
	}
	g.peers = slices.DeleteFunc(slices.Clone(g.members), func(id seq.NodeID) bool { return id == g.self })
	if err := g.e.StartLocal(g.self); err != nil {
		return nil, err
	}
	g.ne = g.e.NE(g.self)

	// Live membership plane.
	if cfg.Live {
		var initial map[seq.NodeID]string
		var seeds []PeerAddr
		if gc.Join {
			seeds = cfg.Peers
		} else {
			initial = make(map[seq.NodeID]string, len(g.members))
			initial[g.self] = nd.LocalAddr()
			for _, p := range cfg.Peers {
				initial[seq.NodeID(p.Node)] = p.Addr
			}
		}
		g.ms = NewMembership(g.e, g.net, g.tel, g.self, nd.LocalAddr(), tun, initial, ringID, seeds)
		g.net.epochTo = g.ms.sendUpdate
		g.sink.lame = g.ms.Lame
		g.ms.OrderHash = g.sink.oh.Sum64 // RingSummary/MergeReq carry the live order fingerprint
		// Ask the coordinator to resume at the recovered durable front
		// (if any) instead of joining fresh at the quorum baseline.
		g.ms.ResumeFront = g.sink.recoveredFront()
		g.ms.OnDiscarded = func(lo, hi seq.GlobalSeq) {
			g.discLo, g.discHi = lo, hi
			g.tel.emit("discard", uint64(hi), fmt.Sprintf("globals [%d, %d]", lo, hi))
			fmt.Fprintf(os.Stderr, "wire: node %d group %d discarded globals [%d, %d]: durable front below the resume horizon, rejoining fresh at the baseline\n",
				cfg.Node, g.gid, lo, hi)
		}
	}

	// Receive surface. Inbound sections feed the local NE; a joiner
	// gates non-membership traffic until its first splice: ordered
	// traffic or a token arriving early (a peer applied the grant
	// before our copy of it landed) would fill the virgin MQ and defeat
	// the baseline jump, stranding the delivery front at the
	// unreachable stream prefix forever. Dropped frames are simply
	// retransmitted by their senders until we join and ack.
	recv := g.ne.Recv
	if gc.Join {
		inner := recv
		gate := g.ms
		recv = func(from seq.NodeID, m msg.Message) {
			// Gate only until the FIRST splice: an evicted leaver must
			// keep receiving acks/Nacks to drain and serve stragglers.
			if gate != nil && !gate.Spliced() {
				switch m.(type) {
				case *msg.Heartbeat, *msg.RingUpdate, *msg.JoinReq, *msg.LeaveReq:
				default:
					return
				}
			}
			inner(from, m)
		}
	}
	// The hooks run on the driver, each datagram's as one more event
	// between the scheduler's own. Done gossip is the group's own
	// business, so it leaves the stream before the splice gate and the NE.
	hooks := GroupHooks{Handler: func(from seq.NodeID, msgs []msg.Message) {
		for _, m := range msgs {
			if d, isDone := m.(*msg.Done); isDone {
				g.hearDone(from, d)
			} else {
				recv(from, m)
			}
		}
	}}
	if g.ms != nil {
		hooks.OnUnknown = g.ms.HandleUnknown
	}
	if err := nd.tr.Register(g.gid, hooks); err != nil {
		return nil, err
	}
	return g, nil
}

// start arms the workload and installs the membership hooks. Driver
// goroutine only. A bootstrap group's stream opens StartMS from now at
// the latest: the daemon brings it forward once every peer answers a
// live clock probe (Node.lifecycle, openBy). A joiner's opens StartMS
// after it joins.
//
// Termination: each member announces where its stream ends (msg.Done,
// in this group's sections) to every live peer: the global of its last
// message, from the event that delivers it — 0 at once if it sources
// nothing, or on joining if it joins. A member converges once it knows
// every live member's end and its delivery front has passed the largest
// with no slot left undelivered, and announces Done again with Drained
// set. Delivering everything is not exit-safe on its own:
// gap repair (Nack) is pull-based, so this member may be the only
// reachable holder of a body a straggler is still missing, and the
// holder of the only copy of the circulating token. So the group is
// finished only when every live peer has said Drained too, or is gone:
// nobody in the ring then needs anything from this member, and the
// daemon may exit at once. With live membership the audience is the
// current live peer set, so a crashed member cannot wedge everyone
// else's exit, and an evicted member owes only what the ring ordered.
// settle walks that state machine, on the event that moves it: a group
// converges on the delivery or the Done that completes what it waits
// for, and is finished on the last Drained notice. The housekeeping step
// settles it too, for what only time decides: the quiesce bound on the
// leave-drain, the live peer set changing, a static peer gone silent,
// and the membership guards clearing.
func (g *ringGroup) start() {
	if g.ms != nil {
		g.ms.OnJoined = func(baseline, resumed seq.GlobalSeq) {
			if resumed > 0 {
				g.resumedAt = resumed
			}
			g.arm("joined")
		}
		g.ms.OnEvicted = func() {
			g.opening.Stop()
			if g.src != nil {
				g.src.Stop()
			}
		}
		// An evicted peer owes only what the ring ordered.
		g.ms.OnRemoved = func(id seq.NodeID) {
			delete(g.ends, id)
			g.endsChanged()
		}
		g.ms.Start()
		g.beatAt = g.sched.Now()
	}
	if !g.gc.Join {
		g.arm("ceiling")
	}
}

// arm schedules the stream to open StartMS from now; cause names what
// opened it in the stream-start event. Post-Normalize, Count <= 0 means
// this member sources nothing for the group (inheritance already
// resolved), so nothing is armed and its empty stream ends now: CBR's
// count == 0 contract is "unbounded until Stop", which would turn a
// silent member into an infinite sender whose stream never ends.
func (g *ringGroup) arm(cause string) {
	if g.gc.Count <= 0 {
		g.endStream(0)
		return
	}
	g.ceilingAt = g.sched.Now() + sim.Time(g.gc.StartMS)*sim.Millisecond
	g.opening = g.sched.At(g.ceilingAt, func() { g.open(cause) })
}

// openBy brings the stream's opening forward to at, if it is still to
// come and due later than that.
func (g *ringGroup) openBy(at sim.Time) {
	if !g.opening.Pending() || at >= g.ceilingAt {
		return
	}
	g.opening.Stop()
	g.opening = g.sched.At(at, func() { g.open("ready") })
}

// open starts the workload now and records a stream-start event: what
// opened it, and when, in milliseconds since the daemon launched.
func (g *ringGroup) open(cause string) {
	g.mark("stream-start", cause)
	n := 0 // submits so far
	// Stamp each payload with the send wall clock (fresh buffer per
	// message: payload slices are shared by reference all the way to
	// retransmission buffers).
	g.src = workload.NewSource(g.sched, func(corr seq.NodeID, payload []byte) error {
		if len(payload) >= 8 {
			buf := make([]byte, len(payload))
			copy(buf, payload)
			binary.LittleEndian.PutUint64(buf, uint64(time.Now().UnixNano()))
			payload = buf
		}
		local, err := g.e.Submit(corr, payload)
		if err == nil {
			g.sink.submitted(local)
		}
		if n++; n == g.gc.Count {
			g.last = local // the stream ends where it is delivered
		}
		return err
	}, g.self, g.gc.Payload)
	gap := sim.Time(float64(sim.Second) / g.gc.RateHz)
	if gap < 1 {
		gap = 1
	}
	g.src.CBR(g.sched.Now(), gap, g.gc.Count)
}

// step advances the group by one housekeeping tick: the local node's
// Order-Assignment pass, the membership plane's heartbeat round once per
// heartbeat, the Done beacons, and settle. Each is
// the backstop for what only time decides. Tokens, TokenAcks and WQ
// bodies already run the pass as they arrive, so here it catches
// front-gap and WQ-stall Nacks, their give-up rounds, and stamping
// resumed after a full MQ. Completing deliveries and Dones already
// settle the lifecycle as they arrive, so here it catches the
// leave-drain and its quiesce bound, a live peer set that changed, and
// convergence held back by a guard that has since cleared (an MQ gap,
// the epoch baseline, the lame ring). On a quiet group the pass walks
// the WQ's sources, at most one per ring member, and finds nothing to
// do, so a step still costs O(ring size), whatever the traffic, and
// allocates only to send. Driver goroutine only.
func (g *ringGroup) step(now sim.Time) {
	g.ne.OrderAssign()
	if g.ms != nil && now-g.beatAt >= g.ms.cfg.Heartbeat {
		g.beatAt = now
		g.ms.tick(now)
	}
	if g.ended() && !g.finished && now-g.beaconAt >= beaconEvery {
		g.beacon(now)
	}
	g.settle(now)
}

// settle takes the lifecycle as far as the group's state allows now:
// converge once this member has delivered everything, then finish once no
// live peer needs it, or, once evicted, the leave-drain. It tells the
// daemon when the group finishes or leaves (Node.settled), and records
// each step on /events. Driver goroutine only.
func (g *ringGroup) settle(now sim.Time) {
	switch {
	case g.left || g.finished:
		return
	case g.converged:
		if g.released(now) {
			g.finished = true
			g.mark("finished", "")
			g.nd.settled()
		}
		return
	case g.ms != nil && g.ms.Evicted():
		// Graceful leave (or eviction): serve retransmissions until
		// our couriers drain — bounded by quiesce, so a transfer
		// stuck on an unreachable peer cannot pin the process to its
		// deadline.
		if g.evictedAt == 0 {
			g.evictedAt = now
		}
		if g.e.Quiesced() && g.ne.TokenIdle() || now-g.evictedAt >= quiesce {
			g.left = true
			g.nd.settled()
		}
		return
	case !g.locallyConverged():
		return
	}
	g.converged, g.convergedAt, g.beaconAt = true, now, now
	g.announce(g.notice()) // best-effort; beacons, the Done reply and the daemon's exit repeat it
	g.mark("converged", "")
	g.settle(now) // every live peer may have said Drained already
}

// passed takes the total order past global at, delivered or recorded as
// really lost: this member's stream ends there if it is the last message
// it submitted, and the group can converge there if it is the largest
// known end. Any other position costs O(1).
func (g *ringGroup) passed(at seq.GlobalSeq, src seq.NodeID, local seq.LocalSeq) {
	switch {
	case src == g.self && local == g.last && !g.ended():
		g.endStream(at)
	case at == g.until:
		g.settle(g.sched.Now())
	}
}

// endStream records that this member's stream ends at global end (0:
// it sourced nothing) and announces that to every live peer. Peers that
// miss it learn it from the beacons, or from the reply to their own Done.
func (g *ringGroup) endStream(end seq.GlobalSeq) {
	g.ends[g.self] = end
	g.endsChanged()
	g.beaconAt = g.sched.Now()
	g.announce(g.notice())
	g.settle(g.sched.Now())
}

// endsChanged recomputes until, the largest known end.
func (g *ringGroup) endsChanged() {
	g.until = 0
	for _, end := range g.ends {
		g.until = max(g.until, end)
	}
}

// ended reports whether this member's stream has ended.
func (g *ringGroup) ended() bool {
	_, ok := g.ends[g.self]
	return ok
}

// notice is this member's Done: where its stream ends, and whether it
// has delivered everything.
func (g *ringGroup) notice() *msg.Done { return &msg.Done{Final: g.ends[g.self], Drained: g.converged} }

// hearDone takes a peer's Done: where its stream ends, and with Drained
// set, that it has delivered everything. A member whose own stream has
// ended answers Done with its own (at most once per 50 ms per peer):
// beacons ride the same lossy socket they gossip about, so a peer that
// missed our announcement or our Drained notice re-learns it the moment
// its own Done reaches us. Only a ring member's end is kept: an evicted
// peer owes only what the ring ordered. Each Done settles the group.
func (g *ringGroup) hearDone(from seq.NodeID, d *msg.Done) {
	now := g.sched.Now()
	if at, ok := g.lastReply[from]; g.ended() && (!ok || now-at >= 50*sim.Millisecond) {
		g.lastReply[from] = now
		g.net.Send(g.self, from, g.notice())
	}
	if g.ms == nil || slices.Contains(g.ms.order, from) {
		g.ends[from] = d.Final
		g.endsChanged()
	}
	g.heardAt[from] = now
	if d.Drained {
		g.drainedFrom[from] = true
	}
	g.settle(now)
}

// mark records a lifecycle event on /events: typ, when in milliseconds
// on the daemon's scheduler (since its event loop started; the driver
// paces it against the wall clock), and why, if anything says.
func (g *ringGroup) mark(typ, why string) {
	ms := int64(g.sched.Now() / sim.Millisecond)
	detail := fmt.Sprintf("at %d ms", ms)
	if why != "" {
		detail = why + " " + detail
	}
	g.tel.emit(typ, uint64(ms), detail)
}

// epoch is the group's membership epoch; a static ring has none (0).
func (g *ringGroup) epoch() uint64 {
	if g.ms == nil {
		return 0
	}
	return g.ms.Epoch()
}

// done reports whether the group is through with the daemon: finished,
// or left. Converged is not enough: until a live peer has said Drained, it
// may still be repairing from this member. A group that left is never
// finished: stragglers of the ring it left may still Nack it.
func (g *ringGroup) done() bool { return g.finished || g.left }

// released reports whether no live peer needs this converged member any
// more: each has said Drained or is gone. On a live ring the failure
// detector takes a gone peer out of the live set. A static ring has none,
// so there a peer that has sent no Done for lingerFor since this member
// converged is gone: one still repairing from it answers every beacon.
func (g *ringGroup) released(now sim.Time) bool {
	for _, p := range g.livePeers() {
		if !g.drainedFrom[p] && (g.ms != nil || now-max(g.heardAt[p], g.convergedAt) < lingerFor) {
			return false
		}
	}
	return true
}

// livePeers is the end-of-run gossip's audience: the live peer set, or
// the static ring's peers. The live set is rebuilt in a buffer the group
// keeps, so a step allocates nothing to read it.
func (g *ringGroup) livePeers() []seq.NodeID {
	if g.ms == nil {
		return g.peers
	}
	g.peerBuf = g.ms.AppendLivePeers(g.peerBuf[:0])
	return g.peerBuf
}

// beacon repeats this member's Done each beaconEvery after its stream
// ended, toward the live peers whose end it does not know, and once it has
// converged, toward those that have not said Drained: a peer that missed
// our notice but knows its own end keeps beaconing us, and the
// rate-limited reply closes that asymmetry. Once every live peer has said
// Drained the beacons stop — a federated daemon hosting hundreds of
// finished groups must not keep flooding its shared socket with Done
// chatter while stragglers finish.
func (g *ringGroup) beacon(now sim.Time) {
	g.beaconAt = now
	for _, p := range g.livePeers() {
		if _, ok := g.ends[p]; !ok || g.converged && !g.drainedFrom[p] {
			g.net.Send(g.self, p, g.notice()) // best-effort; repeated
		}
	}
}

// announce sends d to every live peer, whatever they have said.
func (g *ringGroup) announce(d *msg.Done) {
	for _, p := range g.livePeers() {
		g.net.Send(g.self, p, d)
	}
}

// locallyConverged reports whether this member has delivered everything:
// it knows where its own stream and every live peer's ends, its delivery
// front (the MQ's: delivered or recorded as really lost) has reached the
// largest end, and it holds no undelivered slot (an open gap means repair
// is still running). A member that joined or resumed past an end starts
// its front there. A peer an epoch evicted owes only what the ring
// ordered: its end is forgotten, and the MQ bounds its stream. With live
// membership the member must also be joined, not parked lame (a member
// cut into a minority suspects its peers and would otherwise pass an
// empty live set), caught up to its epoch's baseline, and on a ring whose
// token is alive: a pending regeneration may order messages this node has
// not yet seen.
func (g *ringGroup) locallyConverged() bool {
	if !g.ended() {
		return false
	}
	for _, p := range g.livePeers() {
		if _, ok := g.ends[p]; !ok {
			return false
		}
	}
	if q := g.ne.MQ(); q.Front() < g.until || q.Front() != q.Rear() {
		return false
	}
	return g.ms == nil || g.ms.Joined() && !g.ms.Lame() && !g.ms.Behind() && g.ne.OrdersWell()
}

// sync fsyncs the group's durable log and dead-letter queue, and traces
// how long it took. It costs nothing while both are clean.
func (g *ringGroup) sync() {
	tr := g.tel.tracer
	var t0 time.Time
	if tr.Active() {
		t0 = time.Now()
	}
	g.sink.sync()
	if tr.Active() {
		tr.Annotate(telemetry.StageFsync, g.gid, 0, time.Since(t0).Nanoseconds(), "flush-window")
	}
}

// collect ends the group's live phase and builds its exit report, with
// the error its outcome earns: a total-order violation, or neither
// converging nor leaving before the deadline. Driver goroutine only.
func (g *ringGroup) collect() (GroupReport, error) {
	cfg := g.nd.cfg
	var debugState string
	if !g.converged && !g.left {
		debugState = g.ne.DebugState()
	}
	g.sink.finish()
	rep := g.snapshot()
	switch {
	case rep.OrderErr != "":
		return rep, fmt.Errorf("wire: node %d group %d total-order violation: %s", cfg.Node, g.gid, rep.OrderErr)
	case rep.Converged || rep.Left:
		return rep, nil
	}
	fmt.Fprintln(os.Stderr, debugState)
	return rep, fmt.Errorf("wire: node %d group %d did not converge: delivered %d/%d within %dms",
		cfg.Node, g.gid, rep.Delivered, rep.Expected, cfg.DeadlineMS)
}

// snapshot builds the group's v2 report from live state — the same
// struct serves the daemon's exit report, the admin /status endpoint,
// and the periodic -report-interval line. Driver goroutine only;
// side-effect-free, so it is safe to call mid-run.
func (g *ringGroup) snapshot() GroupReport {
	memberCount := len(g.members)
	if g.ms != nil {
		memberCount = len(g.ms.order)
	}
	var leader uint32
	if top := g.e.H.TopRing(); top != nil {
		leader = uint32(top.Leader())
	}
	rep := GroupReport{
		Group:   g.gid,
		Members: memberCount,
		Leader:  leader,
		// Converged/Left are the lifecycle's phase, so a mid-run
		// snapshot reports the live phase and the exit snapshot the
		// outcome collect() judges.
		Converged: g.converged,
		Left:      g.left,
		Expected:  uint64(g.until),
		Epoch:     g.epoch(),
		Control:   g.e.ControlReport(),
	}
	g.sink.fill(&rep)
	if g.ms != nil {
		rep.Lame = g.ms.Lame()
		rep.LameEntries = g.tel.lameEntries.Value()
		rep.LameMS = int64(g.ms.LameTime() / sim.Millisecond)
		rep.Merges = g.tel.merges.Value()
		rep.HealUS = int64(g.ms.HealLatency() / sim.Microsecond)
	}
	rep.ResumedAt = uint64(g.resumedAt)
	if g.discLo > 0 && g.discLo <= g.discHi {
		rep.DiscardedRange = &SeqRange{Lo: uint64(g.discLo), Hi: uint64(g.discHi)}
	}
	return rep
}

// ready reports whether this group is serving its part of /readyz:
// already converged, or spliced in and ordering well — and in either
// case not parked lame and not sitting on a store error. Driver
// goroutine only.
func (g *ringGroup) ready() bool {
	if g.sink.storeErr != nil {
		return false
	}
	if g.ms != nil {
		if !g.ms.Joined() || g.ms.Lame() {
			return false
		}
	}
	return g.converged || g.ne.OrdersWell()
}
