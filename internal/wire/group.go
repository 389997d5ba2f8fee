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

// protocolConfig is the core tuning for a real-socket deployment:
// unbounded per-hop retries (the acceptance criterion is exact total
// order, not best-effort under give-up), a token-compaction cap of 256
// entries over the last 1,024 globals — every hop re-encodes and rebuilds
// the table, so the cap bounds that work; its bytes no longer matter much
// (≤ 6 per entry, msg.TestTokenBytesBound: under 1.6 KB of a 60 KB
// datagram budget) — and a deep retained window plus ranged Nacks so a
// member that fell behind a reconfiguration (ring repair re-routed its WQ
// feed, or it just joined) catches up from its predecessor's MQ in a few
// round trips. The retained window holds bodies only: each member's
// cumulative assignment table follows its delivery front, so it stays at
// the undelivered window however deep RetainExtra is.
func protocolConfig() core.Config {
	cfg := core.DefaultConfig()
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
	// (ring size × 50 ms); the 500 ms token watchdog still sees the
	// token several times per window. A finished group's token idles
	// the same way until its daemon exits. Tau arms nothing here: the
	// node StartLocal spawns has no τ ticker, and the group's
	// housekeeping step runs its Order-Assignment pass.
	cfg.TokenIdleBackoff = 50 * sim.Millisecond
	return cfg
}

// ringGroup is one hosted ring group: its own engine, substrate over the
// shared outbox, membership plane, delivery sink (sink.go), workload, and
// lifecycle, all running on the daemon's one scheduler and driver. The
// federation (daemon.go) owns what is shared: the transport, the outbox,
// the scheduler and driver, and the ticks that step every group's
// lifecycle and flush every durable log. A group keeps no timer and no
// channel of its own for its lifecycle: the daemon's housekeeping tick
// calls step, and the phase it leaves behind is plain state that
// snapshot, ready and collect read on the driver.
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

	// Lifecycle, advanced by step. Driver goroutine only.
	src       *workload.Source // nil until the workload starts, or when sourcing nothing
	converged bool             // locally converged: Done beacons flow until drained
	drained   bool             // past the Done barrier and its bounded drain
	left      bool             // evicted or left, and its couriers drained
	evictedAt sim.Time         // when step first saw the eviction
	barrierAt sim.Time         // when the barrier last started to hold; 0 while it does not
	beaconAt  sim.Time         // the last Done beacon
	beatAt    sim.Time         // the membership plane's last heartbeat round
	lossAt    sim.Time         // the token watchdog's last Token-Loss signal

	// Done-barrier state. Driver goroutine only.
	doneFrom    map[seq.NodeID]bool
	drainedFrom map[seq.NodeID]bool // peers that said Drained
	lastReply   map[seq.NodeID]sim.Time
	peerBuf     []seq.NodeID // livePeers' buffer

	expected uint64
}

// Lifecycle timings. The daemon's housekeeping tick steps every group
// each stepEvery; the rest are thresholds step checks by elapsed time.
const (
	stepEvery   = 10 * sim.Millisecond
	beaconEvery = 100 * sim.Millisecond // Done gossip while the barrier is open
	// quiesce bounds the post-barrier (and post-eviction) drain of
	// outstanding retransmissions and the token transfer.
	quiesce = 500 * sim.Millisecond
	// tokenWatch is every group's token watchdog: a Token-Loss signal
	// after this much token silence at the group's one origin, at most
	// one per interval. It must be at least the core's TokenLossThreshold,
	// or the signal is ignored, and it dwarfs the worst idle-backoff
	// rotation (ring size × 50 ms), so a merely slow ring never trips it.
	tokenWatch = 500 * sim.Millisecond
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
		doneFrom:    make(map[seq.NodeID]bool),
		drainedFrom: make(map[seq.NodeID]bool),
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
	g.e = core.NewEngine(seq.GroupID(gc.ID), protocolConfig(), g.net, h)
	g.e.Tel = g.tel.coreTel(nd.tel.reg)
	g.e.Tel.TokenRTO.Set(int64(g.e.Cfg.Hop.RTO)) // until the first TokenAck is sampled

	g.e.OnDeliver = g.sink.deliver
	if g.sink.dlq != nil {
		g.e.OnLost = g.sink.lost
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
		tun := MemberTunables{
			Heartbeat: sim.Time(cfg.HeartbeatMS) * sim.Millisecond,
			Suspect:   sim.Time(cfg.SuspectMS) * sim.Millisecond,
			Lame:      sim.Time(cfg.LameMS) * sim.Millisecond,
		}
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

	// The symmetric-workload delivery target; with live membership the
	// count is unknowable and convergence is by quiescence instead.
	if !cfg.Live && gc.Count > 0 {
		g.expected = uint64(gc.Count) * uint64(len(g.members))
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
			d, isDone := m.(*msg.Done)
			if !isDone {
				recv(from, m)
				continue
			}
			// A converged member answers Done with Done (rate-limited),
			// saying whether it has drained: beacons ride the same lossy
			// socket they gossip about, so a straggler that missed our
			// beacons or our Drained notice re-learns them the moment its
			// own Done reaches us, even if we are already lingering on the
			// way out.
			if g.converged && g.sched.Now()-g.lastReply[from] >= 50*sim.Millisecond {
				g.lastReply[from] = g.sched.Now()
				g.net.Send(g.self, from, &msg.Done{Drained: g.drained})
			}
			g.doneFrom[from] = true
			if d.Drained {
				g.drainedFrom[from] = true
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
// Termination barrier: local convergence is NOT exit-safe — gap repair
// (Nack) is pull-based, so this member may be the only reachable holder
// of a body a straggler is still missing, and the holder of the only
// copy of the circulating token. Once locally converged each member
// announces Done (msg.Done, in this group's sections) to every peer, and
// drains only after hearing Done from all of them, i.e. when its
// retransmission state is provably unneeded. The announcement goes to
// every peer, even those already heard from, so when the last member
// converges every barrier holds one message later. Once drained, a
// member announces Done again with Drained set, and the group is finished
// when every peer has said Drained: the daemon may then exit at once.
// With live membership the audience is the current live peer set, so a
// crashed member cannot wedge everyone else's exit. step walks that
// state machine.
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
// resolved), so nothing is armed: CBR's count == 0 contract is
// "unbounded until Stop", which would turn a silent member into an
// infinite sender with no convergence criterion.
func (g *ringGroup) arm(cause string) {
	if g.gc.Count <= 0 {
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
	ms := time.Since(g.nd.wallStart).Milliseconds()
	g.tel.emit("stream-start", uint64(ms), fmt.Sprintf("%s at %d ms", cause, ms))
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
// heartbeat, the token watchdog, the Done beacons, and the lifecycle:
// converge, then the Done barrier and its bounded drain — or, once
// evicted, the leave-drain. Tokens, TokenAcks and WQ bodies already run
// the pass as they arrive, so here it is the backstop for what only time
// settles: front-gap and WQ-stall Nacks, their give-up rounds, and
// stamping resumed after a full MQ. On a quiet group the pass walks the
// WQ's sources, at most one per ring member, and finds nothing to do, so
// a step still costs O(ring size), whatever the traffic, and allocates
// only to send or to signal. Driver goroutine only.
func (g *ringGroup) step(now sim.Time) {
	g.ne.OrderAssign()
	if g.ms != nil && now-g.beatAt >= g.ms.cfg.Heartbeat {
		g.beatAt = now
		g.ms.tick(now)
	}
	// The token watchdog. Topology maintenance cannot see a token that
	// died with its holder while every survivor remembers recent
	// activity, nor one an assign conflict destroyed under overload, so
	// token silence re-raises the paper's Token-Loss signal. Only the
	// group's one origin raises it: Token-Regeneration traversals from
	// two origins can both complete and restart two tokens at the same
	// epoch. The core's TokenLossThreshold filters the signal whenever
	// circulation is demonstrably healthy.
	if last, seen := g.ne.TokenActivity(); seen && now-last > tokenWatch && now-g.lossAt > tokenWatch && g.tokenOrigin() {
		g.lossAt = now
		g.tel.tokenSignals.Inc()
		g.tel.emit("token-loss-signal", g.epoch(), (now - last).String())
		g.e.OnTokenLoss(g.self)
	}
	if g.converged && !g.drained && now-g.beaconAt >= beaconEvery {
		g.beacon(now)
	}
	switch {
	case g.left || g.drained:
	case g.ms != nil && g.ms.Evicted():
		// Graceful leave (or eviction): serve retransmissions until
		// our couriers drain — bounded by quiesce, so a transfer
		// stuck on an unreachable peer cannot pin the process to its
		// deadline.
		if g.evictedAt == 0 {
			g.evictedAt = now
		}
		g.left = g.e.Quiesced() && g.ne.TokenIdle() || now-g.evictedAt >= quiesce
	case !g.converged:
		if g.locallyConverged(now) {
			g.converged = true
			g.beaconAt = now
			// Every peer hears it, including those whose Done we heard
			// before we converged and so never answered: otherwise they
			// would learn of us only at their next beacon.
			g.announce(&msg.Done{})
		}
	case !g.quorate():
		// Idle because cut off, not because the stream ended: a member
		// partitioned into a minority stops hearing data and heartbeats
		// at once, so it can converge on quiescence just before it
		// suspects everyone — and then an empty live set would pass the
		// barrier vacuously. It converges again after the heal.
		g.converged = false
		g.barrierAt = 0
	case !g.barrier():
		g.barrierAt = 0
	default:
		if g.barrierAt == 0 {
			g.barrierAt = now
		}
		// Post-barrier drain (trailing retransmissions, the token
		// settling between rotations), bounded by quiesce.
		if g.e.Quiesced() && g.ne.TokenIdle() || now-g.barrierAt >= quiesce {
			g.drained = true
			g.announce(&msg.Done{Drained: true}) // best-effort; the Done reply repeats it
		}
	}
}

// tokenOrigin reports whether this member is its group's one Token-Loss
// origin: the live coordinator while joined and not lame (if it dies, its
// successor takes over with the eviction epoch), or the static ring's
// top-ring leader, which injected the token, until the group is drained:
// its peers then exit as they finish and take the token with them, and
// a regenerated token would order nothing.
func (g *ringGroup) tokenOrigin() bool {
	if g.ms != nil {
		return g.ms.Joined() && !g.ms.Lame() && g.ms.coordinator() == g.self
	}
	top := g.e.H.TopRing()
	return !g.drained && top != nil && top.Leader() == g.self
}

// epoch is the group's membership epoch; a static ring has none (0).
func (g *ringGroup) epoch() uint64 {
	if g.ms == nil {
		return 0
	}
	return g.ms.Epoch()
}

// done reports whether the group is finished with the daemon: converged
// and past the barrier and its bounded drain, or left.
func (g *ringGroup) done() bool { return g.drained || g.left }

// finished reports whether the group is drained and every live peer has
// said Drained. Each of them has delivered everything, heard every
// peer's Done and passed its bounded drain, so nobody in the ring needs
// anything more from this member. A group that left is never finished:
// stragglers of the ring it left may still Nack it.
func (g *ringGroup) finished() bool { return g.drained && g.heardFromAll(g.drainedFrom) }

// livePeers is the barrier's audience: the live peer set, or the static
// ring's peers. The live set is rebuilt in a buffer the group keeps, so
// a step allocates nothing to read it.
func (g *ringGroup) livePeers() []seq.NodeID {
	if g.ms == nil {
		return g.peers
	}
	g.peerBuf = g.ms.AppendLivePeers(g.peerBuf[:0])
	return g.peerBuf
}

// beacon repeats Done each beaconEvery after converging announced it,
// but only toward peers we have not heard Done from: a peer that missed
// our beacons but has itself converged will keep beaconing us, and the
// rate-limited Done reply closes that asymmetry. Once the barrier holds
// everywhere the beacons stop entirely — a federated daemon hosting
// hundreds of converged groups must not keep flooding its shared socket
// with Done chatter while stragglers finish.
func (g *ringGroup) beacon(now sim.Time) {
	g.beaconAt = now
	for _, p := range g.livePeers() {
		if !g.doneFrom[p] {
			g.net.Send(g.self, p, &msg.Done{}) // best-effort; repeated
		}
	}
}

// announce sends d to every live peer, whatever they have said.
func (g *ringGroup) announce(d *msg.Done) {
	for _, p := range g.livePeers() {
		g.net.Send(g.self, p, d)
	}
}

// quorate reports whether this member, its live peers and the peers
// that said Done are a majority of the ring, as the detector reads now
// (Lame follows the heartbeat tick). Done peers count, so the last
// members out are not stranded by the first ones' exit.
func (g *ringGroup) quorate() bool {
	return g.ms == nil || 2*g.ms.countLive(g.doneFrom) > len(g.ms.order)
}

// barrier reports whether every live peer has said Done.
func (g *ringGroup) barrier() bool { return g.heardFromAll(g.doneFrom) }

// heardFromAll reports whether every live peer is in said.
func (g *ringGroup) heardFromAll(said map[seq.NodeID]bool) bool {
	for _, p := range g.livePeers() {
		if !said[p] {
			return false
		}
	}
	return true
}

// sent reports whether the workload has offered everything it will.
func (g *ringGroup) sent() bool {
	if g.gc.Count <= 0 {
		return true // nothing to source, nothing to drain
	}
	return g.src != nil && g.src.Sent+g.src.Errors >= uint64(g.gc.Count)
}

// locallyConverged reports whether this member has delivered all it will:
// the static ring's symmetric target, or quiescence under live membership.
func (g *ringGroup) locallyConverged(now sim.Time) bool {
	if g.ms == nil {
		return g.sink.delivered() >= g.expected && g.sent()
	}
	// Dynamic membership: the exact delivery count is unknowable, so
	// converge on quiescence — everything sent, no undelivered slot in
	// the MQ (an open gap means repair is still running), senders
	// drained, and the delivery stream idle.
	if !g.ms.Joined() || g.ms.Lame() || !g.quorate() || !g.sent() || !g.e.Quiesced() {
		return false
	}
	// A token-dead ring is never converged, however idle: a pending
	// regeneration may order messages this node has not yet seen, so
	// leaving now could strand a divergent delivery prefix.
	if !g.ne.OrdersWell() {
		return false
	}
	if q := g.ne.MQ(); q.Front() != q.Rear() {
		return false
	}
	// lastAt is 0 until the first delivery: idle since start.
	return now-g.sink.lastAt >= sim.Time(g.nd.cfg.IdleMS)*sim.Millisecond
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
		cfg.Node, g.gid, rep.Delivered, g.expected, cfg.DeadlineMS)
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
		Expected:  g.expected,
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
