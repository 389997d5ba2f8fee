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
	cfg.Wireless.MaxRetries = 0
	// Unbounded retries need backoff: a peer seconds behind on a loaded
	// federated daemon is only buried deeper by fixed-20ms duplicates.
	cfg.Hop.BackoffCap = 500 * sim.Millisecond
	cfg.Wireless.BackoffCap = 500 * sim.Millisecond
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
	// token several times per window.
	cfg.TokenIdleBackoff = 50 * sim.Millisecond
	return cfg
}

// ringGroup is one hosted ring group: its own engine, substrate over the
// shared outbox, membership plane, delivery sink (sink.go), workload, and
// convergence barrier, all running on the daemon's one scheduler and
// driver. The federation (daemon.go) owns what is shared: the transport,
// the outbox, the scheduler and the driver.
type ringGroup struct {
	nd      *Node
	gc      GroupConfig
	gid     uint32
	self    seq.NodeID
	members []seq.NodeID
	port    *Port

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

	// Done-barrier state. Driver goroutine only.
	doneFrom  map[seq.NodeID]bool
	lastReply map[seq.NodeID]sim.Time
	localDone bool

	converged chan struct{}
	drained   chan struct{}
	left      chan struct{}

	expected uint64
}

// newRingGroup assembles one group against the daemon's shared transport,
// outbox and scheduler: topology, engine, substrate peers, membership
// plane, and the group's receive hooks on the transport. The federation
// starts every group after the transport reader and the driver are up.
func newRingGroup(nd *Node, gc GroupConfig) (_ *ringGroup, err error) {
	cfg := nd.cfg
	g := &ringGroup{
		nd:        nd,
		gc:        gc,
		gid:       gc.ID,
		self:      nd.self,
		port:      NewPort(nd.tr, gc.ID),
		doneFrom:  make(map[seq.NodeID]bool),
		lastReply: make(map[seq.NodeID]sim.Time),
		converged: make(chan struct{}),
		drained:   make(chan struct{}),
		left:      make(chan struct{}),
		tel:       nd.tel.group(gc.ID),
		sched:     nd.drv.sched,
	}
	if g.sink, err = newDeliverySink(gc.ID, g.self, g.sched, g.tel, gc.TracePath, gc.DataDir); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			g.sink.close()
		}
	}()
	g.sink.offsetOf = g.port.OffsetOf

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

	g.e.OnDeliver = g.sink.deliver
	if g.sink.dlq != nil {
		g.e.OnLost = g.sink.lost
	}

	g.peers = make([]seq.NodeID, 0, len(g.members)-1)
	for _, id := range g.members {
		if id != g.self {
			g.peers = append(g.peers, id)
			g.net.expose(id)
		}
	}
	for _, p := range cfg.Peers {
		if p.Addr == "" {
			return nil, fmt.Errorf("wire: peer %d has no address", p.Node)
		}
		if err := g.port.AddPeer(seq.NodeID(p.Node), p.Addr); err != nil {
			return nil, err
		}
	}
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
		g.ms = NewMembership(g.e, g.port, g.net, g.self, nd.LocalAddr(), tun, initial, ringID, seeds)
		g.ms.SetTelemetry(g.tel.memberTel())
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
	// The transport's reader goroutine hands each section to the driver,
	// which dispatches it to the NE as one more event between its own.
	hooks := GroupHooks{Handler: func(from seq.NodeID, msgs []msg.Message) {
		nd.drv.Call(func() {
			for _, m := range msgs {
				recv(from, m)
			}
		})
	}}
	hooks.OnControl = func(from seq.NodeID, flags uint8) {
		if flags&FlagDone == 0 {
			return
		}
		nd.drv.Call(func() {
			// A converged member answers Done with Done (rate-limited):
			// beacons ride the same lossy socket they gossip about, so
			// a straggler that missed our periodic beacons re-learns we
			// are done the moment its own beacons start flowing, even
			// if we are already lingering on the way out.
			if g.localDone && g.sched.Now()-g.lastReply[from] >= 50*sim.Millisecond {
				g.lastReply[from] = g.sched.Now()
				g.port.SendControl(from, FlagDone)
			}
			g.doneFrom[from] = true
		})
	}
	if g.ms != nil {
		ms := g.ms
		hooks.OnUnknown = func(from seq.NodeID, msgs []msg.Message) {
			nd.drv.Call(func() { ms.HandleUnknown(from, msgs) })
		}
	}
	if err := nd.tr.Register(g.gid, hooks); err != nil {
		return nil, err
	}
	return g, nil
}

// start installs the workload and the convergence/termination state
// machine on the scheduler. Driver goroutine only.
//
// Termination barrier: local convergence is NOT exit-safe — gap repair
// (Nack) is pull-based, so this member may be the only reachable holder
// of a body a straggler is still missing, and the holder of the only
// copy of the circulating token. Once locally converged each member
// gossips a FlagDone beacon (scoped to this group's sections) to every
// peer and leaves the ring only after hearing Done from all of them,
// i.e. when its retransmission state is provably unneeded. With live
// membership the barrier audience is the current live peer set, so a
// crashed member cannot wedge everyone else's exit.
func (g *ringGroup) start() {
	cfg := g.nd.cfg
	gc := g.gc
	var src *workload.Source
	startWorkload := func() {
		// Post-Normalize, Count <= 0 means this member sources
		// nothing for the group (inheritance already resolved) —
		// don't build a source at all: CBR's count == 0 contract is
		// "unbounded until Stop", which would turn a silent member
		// into an infinite sender with no convergence criterion.
		if gc.Count <= 0 {
			return
		}
		// Stamp each payload with the send wall clock (fresh buffer
		// per message: payload slices are shared by reference all the
		// way to retransmission buffers).
		src = workload.NewSource(g.sched, func(corr seq.NodeID, payload []byte) error {
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
		}, g.self, gc.Payload)
		gap := sim.Time(float64(sim.Second) / gc.RateHz)
		if gap < 1 {
			gap = 1
		}
		src.CBR(g.sched.Now()+sim.Time(gc.StartMS)*sim.Millisecond, gap, gc.Count)
	}
	if g.ms != nil {
		g.ms.OnJoined = func(baseline, resumed seq.GlobalSeq) {
			if resumed > 0 {
				g.resumedAt = resumed
			}
			startWorkload()
		}
		g.ms.OnEvicted = func() {
			if src != nil {
				src.Stop()
			}
		}
		g.ms.Start()
	}
	if !gc.Join {
		startWorkload()
	}

	// Batched durability: dirty appends ride one fsync per flush
	// window instead of one per delivery. Sync is a no-op while the
	// log is clean, so idle groups cost nothing.
	if g.sink.dlog != nil {
		// 25 ms bounds the crash-loss window; BenchmarkFileLogAppend
		// (internal/store) measures what other cadences would cost.
		const fsyncWindow = 25 * sim.Millisecond
		g.sched.Every(fsyncWindow, func() {
			tr := g.tel.tracer
			var t0 time.Time
			if tr.Active() {
				t0 = time.Now()
			}
			g.sink.sync()
			if tr.Active() {
				tr.Annotate(telemetry.StageFsync, g.gid, 0, time.Since(t0).Nanoseconds(), "flush-window")
			}
		})
	}

	livePeers := func() []seq.NodeID {
		if g.ms != nil {
			return g.ms.LivePeers()
		}
		return g.peers
	}
	beacon := func() {
		// Gossip only toward peers we have not heard Done from: a
		// peer that missed our beacons but has itself converged will
		// keep beaconing us, and the rate-limited Done reply above
		// closes that asymmetry. Once the barrier holds everywhere
		// the beacons stop entirely — a federated daemon hosting
		// hundreds of converged groups must not keep flooding its
		// shared socket with Done chatter while stragglers finish.
		for _, p := range livePeers() {
			if !g.doneFrom[p] {
				g.port.SendControl(p, FlagDone) // best-effort; repeated
			}
		}
	}
	sent := func() bool {
		if gc.Count <= 0 {
			return true // nothing to source, nothing to drain
		}
		return src != nil && src.Sent+src.Errors >= uint64(gc.Count)
	}
	locallyConverged := func() bool {
		if cfg.Live {
			// Dynamic membership: the exact delivery count is
			// unknowable, so converge on quiescence — everything
			// sent, no undelivered slot in the MQ (an open gap means
			// repair is still running), senders drained, and the
			// delivery stream idle.
			if !g.ms.Joined() || g.ms.Lame() || !sent() || !g.e.Quiesced() {
				return false
			}
			// A token-dead ring is never converged, however idle:
			// a pending regeneration may order messages this node
			// has not yet seen, so leaving now could strand a
			// divergent delivery prefix.
			if !g.ne.OrdersWell() {
				return false
			}
			if q := g.ne.MQ(); q.Front() != q.Rear() {
				return false
			}
			// lastAt is 0 until the first delivery: idle since start.
			return g.sched.Now()-g.sink.lastAt >= sim.Time(cfg.IdleMS)*sim.Millisecond
		}
		return g.sink.delivered() >= g.expected && sent()
	}
	barrier := func() bool {
		for _, p := range livePeers() {
			if !g.doneFrom[p] {
				return false
			}
		}
		return true
	}
	var watchTick *sim.Ticker
	if g.ms == nil {
		// Static membership has no failure detector, but the token
		// can still die under extreme overload (an assign conflict
		// destroys the only copy after its sender was already
		// acked), and with nobody watching, the ring stays dead
		// forever. Re-emit the paper's Token-Loss signal after a
		// second of token silence; the core's TokenLossThreshold
		// filters the signal whenever circulation is demonstrably
		// healthy, and Multiple-Token filtering resolves the rare
		// concurrent regeneration. A second dwarfs the worst idle-
		// backoff rotation (ring size × 50 ms), so a merely slow
		// ring never trips it.
		var lastSignal sim.Time
		watchTick = g.sched.Every(250*sim.Millisecond, func() {
			last, seen := g.ne.TokenActivity()
			now := g.sched.Now()
			if seen && now-last > sim.Second && now-lastSignal > sim.Second {
				lastSignal = now
				g.e.OnTokenLoss(g.self)
			}
		})
	}
	leftClosed := false
	evictedAt := sim.Time(0)
	phase := 0 // 0 = converging, 1 = draining
	var barrierAt sim.Time
	// quiesce bounds the post-barrier (and post-eviction) drain of
	// outstanding retransmissions and the token transfer.
	const quiesce = 500 * sim.Millisecond
	var tick, beaconTick *sim.Ticker
	lastDelivered := uint64(0)
	// The convergence check backs off to 100ms while nothing is
	// happening: a daemon hosting hundreds of groups cannot afford a
	// 10ms poll per group while most of them sit quietly waiting for
	// their workload to start or for a sibling's barrier. Delivery
	// progress or a phase transition snaps it back to 10ms, so the
	// convergence timestamp a report records stays sharp.
	tick = g.sched.EveryBackoff(10*sim.Millisecond, 100*sim.Millisecond, func() bool {
		delivered := g.sink.delivered()
		active := delivered != lastDelivered
		lastDelivered = delivered
		if g.ms != nil && g.ms.Evicted() {
			// Graceful leave (or eviction): serve retransmissions
			// until our couriers drain — bounded by quiesce, so a
			// transfer stuck on an unreachable peer cannot pin the
			// process to its deadline.
			if evictedAt == 0 {
				evictedAt = g.sched.Now()
				active = true
			}
			drainedOut := g.e.Quiesced() && g.ne.TokenIdle()
			if !leftClosed && (drainedOut || g.sched.Now()-evictedAt >= quiesce) {
				leftClosed = true
				tick.Stop()
				close(g.left)
			}
			return active
		}
		switch phase {
		case 0:
			if locallyConverged() {
				phase = 1
				g.localDone = true
				close(g.converged)
				beacon()
				beaconTick = g.sched.Every(100*sim.Millisecond, beacon)
				active = true
			}
		case 1:
			if !barrier() {
				barrierAt = 0
				return active
			}
			if barrierAt == 0 {
				barrierAt = g.sched.Now()
				active = true
			}
			// Post-barrier drain (trailing retransmissions, the token
			// settling between rotations), bounded by quiesce.
			if (g.e.Quiesced() && g.ne.TokenIdle()) ||
				g.sched.Now()-barrierAt >= quiesce {
				tick.Stop() // no further ticks fire after Stop
				beaconTick.Stop()
				if g.ms == nil {
					// The static group is done everywhere: retire the
					// ring so a daemon hosting hundreds of finished
					// groups stops paying for their idle circulation.
					// (Live groups leave the token to the membership
					// plane, which owns its liveness until Stop.)
					watchTick.Stop()
					g.ne.ParkToken()
				}
				close(g.drained)
			}
		}
		return active
	})
}

// wait blocks until this group is done with the daemon — converged and
// past the group-wide barrier and its bounded drain, or left — or the
// shared deadline passes. It reports false if the node is killed first.
func (g *ringGroup) wait(deadline <-chan struct{}) bool {
	select {
	case <-g.converged:
		select {
		case <-g.drained:
		case <-g.left:
		case <-g.nd.killed:
			return false
		case <-deadline:
		}
	case <-g.left:
	case <-g.nd.killed:
		return false
	case <-deadline:
	}
	return true
}

// collect ends the group's live phase and builds its exit report, with
// the error its outcome earns: a total-order violation, or neither
// converging nor leaving before the deadline. Driver goroutine only.
func (g *ringGroup) collect() (GroupReport, error) {
	cfg := g.nd.cfg
	var debugState string
	if !chanClosed(g.converged) && !chanClosed(g.left) {
		debugState = g.ne.DebugState()
	}
	g.finish()
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

// chanClosed reports whether ch has been closed, without blocking.
func chanClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// snapshot builds the group's v2 report from live state — the same
// struct serves the daemon's exit report, the admin /status endpoint,
// and the periodic -report-interval line. Driver goroutine only;
// side-effect-free, so it is safe to call mid-run.
func (g *ringGroup) snapshot() GroupReport {
	memberCount := len(g.members)
	var epoch uint64
	if g.ms != nil {
		memberCount = len(g.ms.order)
		epoch = g.ms.Epoch()
	}
	var leader uint32
	if top := g.e.H.TopRing(); top != nil {
		leader = uint32(top.Leader())
	}
	rep := GroupReport{
		Group:   g.gid,
		Members: memberCount,
		Leader:  leader,
		// Converged/Left mirror the barrier channels, so a mid-run
		// snapshot reports the live phase and the exit snapshot the
		// outcome collect() judges.
		Converged: chanClosed(g.converged),
		Left:      chanClosed(g.left),
		Expected:  g.expected,
		Epoch:     epoch,
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

// finish ends the group's live phase before the exit snapshot: stop the
// membership ticker and settle the sink's files. Driver goroutine only.
func (g *ringGroup) finish() {
	if g.ms != nil {
		g.ms.Stop()
	}
	g.sink.finish()
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
	return chanClosed(g.converged) || g.ne.OrdersWell()
}
