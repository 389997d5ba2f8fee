package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/queue"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/transport"
)

// NE is the per-network-entity protocol state machine (paper §4.1, Data
// Structure of NEs). It runs the Message-Forwarding and
// Message-Delivering algorithms; top-ring NEs additionally run
// Message-Ordering, Order-Assignment, and Token-Regeneration (ordering.go).
type NE struct {
	e      *Engine
	id     seq.NodeID
	view   topology.Neighbors
	failed bool

	// mq holds totally-ordered messages; wt tracks per-downstream
	// delivery progress for garbage collection.
	mq *queue.MQ
	wt *queue.WT

	// Top-ring state: the working queues of messages awaiting ordering,
	// the cumulative assignment table, and the stored token versions.
	wq     *queue.WQ
	assign *seq.WTSNP
	// assignFloor is, per source, the highest local whose assignment
	// compactAssign dropped from assign; it survives compaction as the
	// table's high-water marks do.
	assignFloor map[seq.NodeID]seq.LocalSeq
	oldToken    *seq.Token
	newToken    *seq.Token
	held        *seq.Token // token currently held (pre-forward) or awaiting forward ack
	holding     bool
	idleNext    seq.GlobalSeq // NextGlobalSeq when the idle streak began
	idleStreak  int           // consecutive rotations with no new assignment
	safeHorizon seq.GlobalSeq
	lastToken   sim.Time
	tokenSeen   bool
	stampEpoch  uint64
	stampHops   uint64
	stampSet    bool

	// Multiple-token filtering.
	filterUntil sim.Time
	bestToken   *seq.Token

	// deliveryHold parks delivery without touching ordered state: the MQ
	// keeps accepting and repairing bodies but the front never advances
	// and no really-lost verdicts are issued. The wire layer sets it on a
	// partition minority (lame ring) so no delivery the majority might
	// contradict can happen before the rings merge.
	deliveryHold bool

	// Reliable hop state.
	ringSender   *transport.Sender                // ordered stream to ring next (non-top rings)
	wqSenders    map[seq.NodeID]*transport.Sender // per-source unordered streams to ring next (top ring)
	wqFwd        map[seq.NodeID]seq.LocalSeq      // per-source forwarded high-water
	childSenders map[seq.NodeID]*transport.Sender // ordered streams to active children
	mhSenders    map[seq.HostID]*transport.Sender // ordered streams to attached MHs
	tokenCourier *transport.Courier
	regenCourier *transport.Courier
	joinCourier  *transport.Courier
	tokenExpect  ackExpect
	regenExpect  ackExpect
	lastRegen    regenStamp
	lastRegenAt  sim.Time

	// Token delta state (tokendelta.go): the version in flight, the one
	// the successor acknowledged (the next hop's base), and the one last
	// accepted from the predecessor (what its deltas rebuild against).
	tokenSent, txBase, rxBase *tokenBase

	// AP activity: an AP is attached to the delivery tree only while it
	// has members or a live reservation (paper §3).
	isAP          bool
	active        bool
	reservedUntil sim.Time
	awaitingJoin  bool
	joinedParent  seq.NodeID
	lingerTimer   sim.Timer

	// Gap repair: per-source stall clocks for Nack-based body recovery,
	// plus the count of fruitless repair rounds (escalation state), and
	// the delivery-front stall clock for the MQ-level repair backstop.
	stallSince  map[seq.NodeID]sim.Time
	stallRounds map[seq.NodeID]int
	frontStall  sim.Time
	frontRounds int
	frontG      seq.GlobalSeq // the global the front-stall state refers to
	// wqAligned marks source queues that have ordered at least one real
	// body: their mid-stream joiner alignment (ordering.go) is over.
	wqAligned map[seq.NodeID]bool

	// ack is the pending-acknowledgement register: cumulative acks owed
	// to the current upstream neighbor, coalesced under Cfg.AckDelay and
	// flushed as one (possibly multi-source) Ack — or piggybacked on a
	// TokenAck / ordered frame already headed to the same neighbor.
	ack        ackPending
	ackFlush   func()        // cached closure for the flush timer
	runScratch []msg.Message // fanoutRun burst assembly buffer

	// Cached fanout orders (the fanout runs per delivered message;
	// rebuilding these lists must not allocate or re-sort). The dirty
	// flags are set wherever the sender maps or the neighbor view
	// change.
	childList      []*transport.Sender
	childListDirty bool
	mhList         []*transport.Sender
	mhListDirty    bool
	hostScratch    []seq.HostID

	// aux receives membership-plane messages (heartbeats, token-loss
	// and multiple-token signals, host-level membership updates) that
	// the multicast protocol itself does not consume.
	aux netsim.Handler

	tauTicker *sim.Ticker

	// counters
	ctrTokenForwards uint64
	ctrRegens        uint64
	ctrNacks         uint64
	ctrTokenDestroys uint64
}

// The count* taps bump a driver-confined counter and mirror it into the
// engine's live instrument (a nil no-op outside the wire daemon).

func (n *NE) countTokenForward() { n.ctrTokenForwards++; n.e.Tel.TokenHops.Inc() }
func (n *NE) countTokenDestroy() { n.ctrTokenDestroys++; n.e.Tel.TokenDestroys.Inc() }
func (n *NE) countRegen()        { n.ctrRegens++; n.e.Tel.TokenRegens.Inc() }

type ackExpect struct {
	active bool
	epoch  uint64
	hops   uint64
	next   seq.GlobalSeq
}

// ackPending coalesces outgoing cumulative acknowledgements to one
// upstream neighbor (the paper acknowledges cumulatively, so only the
// newest value per stream matters). global marks a pending ordered-stream
// ack; sources lists WQ source streams with pending per-source cums.
type ackPending struct {
	to      seq.NodeID
	global  bool
	sources []seq.NodeID
	sentCum seq.GlobalSeq // CumGlobal of the last flush (RetainExtra pressure)
	timer   sim.Timer
}

func (a *ackPending) dirty() bool { return a.global || len(a.sources) > 0 }

type regenStamp struct {
	origin seq.NodeID
	next   seq.GlobalSeq
	epoch  uint64
	set    bool
}

func newNE(e *Engine, id seq.NodeID) *NE {
	n := &NE{
		e:            e,
		id:           id,
		mq:           queue.NewMQ(e.Cfg.MQSize),
		wt:           queue.NewWT(),
		wqSenders:    make(map[seq.NodeID]*transport.Sender),
		wqFwd:        make(map[seq.NodeID]seq.LocalSeq),
		childSenders: make(map[seq.NodeID]*transport.Sender),
		mhSenders:    make(map[seq.HostID]*transport.Sender),
		stallSince:   make(map[seq.NodeID]sim.Time),
		stallRounds:  make(map[seq.NodeID]int),
		wqAligned:    make(map[seq.NodeID]bool),
	}
	n.ackFlush = n.flushAcks
	n.tokenCourier = transport.NewCourier(e.Net, id, e.Cfg.Hop)
	n.tokenCourier.OnFail = func(to seq.NodeID, m msg.Message) { n.onTokenCourierFail() }
	n.tokenCourier.Resend = n.resendWholeToken
	n.regenCourier = transport.NewCourier(e.Net, id, e.Cfg.Hop)
	// Join retries are paced slower than data RTO (an idle parent has
	// nothing to send back to confirm with) but fast enough that a
	// lost Join costs less than the retained window.
	n.joinCourier = transport.NewCourier(e.Net, id, transport.Config{RTO: 3 * e.Cfg.Hop.RTO, MaxRetries: 0})
	if node := e.H.Node(id); node != nil {
		n.isAP = node.Tier == topology.TierAP
	}
	return n
}

// reset clears all protocol state (crash recovery rejoin).
func (n *NE) reset() {
	n.failed = false
	n.mq = queue.NewMQ(n.e.Cfg.MQSize)
	n.wt = queue.NewWT()
	n.wq = nil
	n.assign, n.assignFloor = nil, nil
	n.oldToken, n.newToken, n.held = nil, nil, nil
	n.holding = false
	n.safeHorizon = 0
	n.tokenSeen = false
	n.stampSet = false
	n.bestToken = nil
	n.deliveryHold = false
	for _, s := range n.wqSenders {
		s.Close()
	}
	n.wqSenders = make(map[seq.NodeID]*transport.Sender)
	n.wqFwd = make(map[seq.NodeID]seq.LocalSeq)
	if n.ringSender != nil {
		n.ringSender.Close()
		n.ringSender = nil
	}
	for _, s := range n.childSenders {
		s.Close()
	}
	n.childSenders = make(map[seq.NodeID]*transport.Sender)
	for _, s := range n.mhSenders {
		s.Close()
	}
	n.mhSenders = make(map[seq.HostID]*transport.Sender)
	n.tokenCourier.Cancel()
	n.regenCourier.Cancel()
	n.joinCourier.Cancel()
	n.tokenExpect, n.regenExpect = ackExpect{}, ackExpect{}
	n.tokenSent, n.txBase, n.rxBase = nil, nil, nil
	n.ack.timer.Stop()
	n.ack = ackPending{}
	n.active = false
	n.awaitingJoin = false
	n.joinedParent = seq.None
	n.stallSince = make(map[seq.NodeID]sim.Time)
	n.stallRounds = make(map[seq.NodeID]int)
	n.wqAligned = make(map[seq.NodeID]bool)
	n.frontStall, n.frontRounds, n.frontG = 0, 0, 0
	n.childListDirty = true
	n.mhListDirty = true
	n.refreshNeighbors()
}

func (n *NE) now() sim.Time { return n.e.Scheduler().Now() }

// Recv implements netsim.Handler: the protocol dispatch loop.
func (n *NE) Recv(from seq.NodeID, m msg.Message) {
	if n.failed {
		return
	}
	switch v := m.(type) {
	case *msg.Data:
		if v.Ordered() {
			n.handleOrderedData(from, v)
		} else {
			n.handleWQData(from, v)
		}
	case *msg.Skip:
		n.handleSkip(from, v)
	case *msg.Ack:
		n.handleAck(from, v)
	case *msg.Nack:
		n.handleNack(from, v)
	case *msg.TokenMsg:
		n.handleToken(from, n.tokenOf(from, v))
	case *msg.TokenAck:
		n.handleTokenAck(from, v)
	case *msg.TokenRegen:
		n.handleTokenRegen(from, v)
	case *msg.Progress:
		n.handleProgress(from, v)
	case *msg.Join:
		if v.Node != seq.None {
			n.handleJoin(from, v)
		} else if n.aux != nil {
			n.aux.Recv(from, m)
		}
	case *msg.Leave:
		if v.Node != seq.None {
			n.handleLeave(from, v)
		} else if n.aux != nil {
			n.aux.Recv(from, m)
		}
	case *msg.HandoffNotify:
		n.handleHandoffNotify(from, v)
	case *msg.Reserve:
		n.handleReserve(from, v)
	case *msg.Heartbeat, *msg.JoinReq, *msg.LeaveReq, *msg.RingUpdate,
		*msg.QuorumVote, *msg.RingSummary, *msg.MergeReq:
		// Membership-plane messages belong to the membership manager.
		if n.aux != nil {
			n.aux.Recv(from, m)
		}
	}
}

// SetAux installs the membership-plane message handler.
func (n *NE) SetAux(h netsim.Handler) { n.aux = h }

// ID returns the node identity.
func (n *NE) ID() seq.NodeID { return n.id }

// Active reports whether an AP is currently attached to the delivery
// tree (always true for non-AP entities).
func (n *NE) Active() bool { return !n.isAP || n.active }

// Failed reports whether the node is crashed (false for a node the
// engine never spawned).
func (n *NE) Failed() bool { return n != nil && n.failed }

// MQ exposes the node's message queue for tests and metrics.
func (n *NE) MQ() *queue.MQ { return n.mq }

// TokenIdle reports whether this node neither holds the ordering token
// nor has a token or regeneration transfer awaiting acknowledgement —
// the safe-to-exit check for real deployments (cmd/ringnetd) whose
// processes leave the ring after converging.
func (n *NE) TokenIdle() bool {
	return !n.holding && n.held == nil && !n.tokenCourier.Busy() && !n.regenCourier.Busy()
}

// TokenActivity reports whether this node has ever sighted the ordering
// token and when it last did (token arrival or acknowledged forward).
// The wire membership manager's token watchdog uses it to detect a lost
// token independently of topology-maintenance signals.
func (n *NE) TokenActivity() (last sim.Time, seen bool) { return n.lastToken, n.tokenSeen }

// TokenStamp reports the highest (epoch, hops) token stamp this node has
// witnessed, and whether it has witnessed any token at all. The wire
// membership plane embeds it in ring summaries so merging sides can run
// Multiple-Token resolution before any member rejoins.
func (n *NE) TokenStamp() (epoch, hops uint64, ok bool) {
	if !n.stampSet {
		return 0, 0, false
	}
	return n.stampEpoch, n.stampHops, true
}

// JumpTo force-releases a virgin node's MQ to global position g: the
// stream baseline for a member that joins the ring mid-stream (it
// receives and delivers the total order from g+1 onward). No-op once the
// node has received any ordered traffic.
func (n *NE) JumpTo(g seq.GlobalSeq) {
	if n.mq.Rear() == 0 && g > 0 {
		n.mq.ForceRelease(g)
	}
}

// SetDeliveryHold parks (or resumes) delivery without touching the
// node's ordered state: the MQ keeps accepting and repairing bodies but
// the delivery front never advances and no really-lost verdicts are
// issued. Clearing the hold flushes whatever contiguous run accumulated
// while parked. The wire membership plane holds a partition minority's
// delivery while it sits in the lame ring, so nothing the quorum side
// might contradict is ever handed to the application.
func (n *NE) SetDeliveryHold(hold bool) {
	if n.failed {
		return
	}
	if n.deliveryHold == hold {
		return
	}
	n.deliveryHold = hold
	if !hold {
		n.deliverLoop()
	}
}

// DiscardTokenBelow destroys a held or in-flight token whose epoch
// predates epoch (strict less-than) and reports whether one was
// destroyed. A partition minority re-admitted into the quorum ring calls
// this so the token it parked during the split can never re-enter
// circulation and dispute assignments the surviving token already made.
func (n *NE) DiscardTokenBelow(epoch uint64) bool {
	if n.failed {
		return false
	}
	if n.held == nil || n.held.Epoch >= epoch {
		return false
	}
	n.held = nil
	n.holding = false
	n.countTokenDestroy()
	if n.tokenCourier.Busy() {
		n.tokenCourier.Cancel()
	}
	n.tokenExpect = ackExpect{}
	return true
}

// Readmit resets the repair clocks of a member rejoining the ring with
// retained pre-partition state, and releases any delivery hold. Its
// stall counters accumulated against unreachable peers and would
// otherwise trigger spurious give-ups the moment repair resumes; the
// token clock is refreshed so the watchdog measures from re-admission,
// not from before the split. A virgin queue with a baseline
// force-releases exactly like JumpTo.
func (n *NE) Readmit(baseline seq.GlobalSeq) {
	if n.failed {
		return
	}
	if baseline > 0 && n.mq.Rear() == 0 {
		n.mq.ForceRelease(baseline)
	}
	n.restartRepairClocks()
}

// RejoinFresh abandons the node's position in the stream and re-enters
// at baseline, delivering from baseline+1 onward. This is the
// readmission path for a member whose gap fell below the ring's
// retained windows (CompactKeep/RetainExtra): no live member holds the
// bodies it is missing, so repair can never complete — instead of
// grinding give-up rounds forever, the member abandons (front, baseline]:
// slots in that range are neither delivered nor repaired again. Unlike
// JumpTo this acts on a non-virgin queue. Repair clocks reset and any
// delivery hold clears, exactly like Readmit. Returns the abandoned
// range for the caller to report (lo > hi when nothing was discarded).
func (n *NE) RejoinFresh(baseline seq.GlobalSeq) (lo, hi seq.GlobalSeq) {
	if n.failed {
		return 1, 0
	}
	lo, hi = n.mq.Front()+1, baseline
	if baseline > n.mq.Front() {
		n.mq.ForceRelease(baseline)
	} else {
		lo, hi = 1, 0
	}
	n.restartRepairClocks()
	n.deliverLoop()
	return lo, hi
}

// restartRepairClocks is the common tail of Readmit and RejoinFresh:
// clear the stall state accumulated against unreachable peers, restart
// the token watchdog from now, and lift any delivery hold.
func (n *NE) restartRepairClocks() {
	n.stallSince = make(map[seq.NodeID]sim.Time)
	n.stallRounds = make(map[seq.NodeID]int)
	n.frontStall, n.frontRounds, n.frontG = 0, 0, 0
	if n.tokenSeen {
		n.lastToken = n.now()
	}
	n.SetDeliveryHold(false)
}

// noteLost reports a really-lost verdict to the engine's OnLost hook.
func (n *NE) noteLost(g seq.GlobalSeq, src seq.NodeID, local seq.LocalSeq, reason string) {
	n.e.Tel.ReallyLost.Inc()
	n.e.Tel.Emit("really-lost", uint64(g), reason)
	if h := n.e.OnLost; h != nil {
		h(n.id, g, src, local, reason)
	}
}

// DropPeer severs reliable-delivery state targeting a member that was
// removed from the ring. The caller has already repaired the topology
// and refreshed this node's neighbor view: a token transfer in flight to
// the removed member is canceled, a regeneration traversal stuck on it
// is abandoned, and pending acknowledgements owed to it are discarded.
// Without this, the wire deployment's unbounded-retry couriers would
// retransmit to the corpse forever.
func (n *NE) DropPeer(dead seq.NodeID) {
	if n.failed {
		return
	}
	// Pending acknowledgements owed to the corpse are moot.
	if n.ack.to == dead {
		n.ack.timer.Stop()
		n.ack = ackPending{}
	}
	n.wt.Remove(wtNode(dead))
	if n.txBase != nil && n.txBase.peer == dead {
		n.txBase = nil
	}
	if n.rxBase != nil && n.rxBase.peer == dead {
		n.rxBase = nil
	}
	delete(n.stallSince, dead)
	delete(n.stallRounds, dead)
	if s := n.childSenders[dead]; s != nil {
		s.Close()
		delete(n.childSenders, dead)
		n.childListDirty = true
	}
	// WQ streams were retargeted by refreshNeighbors when a successor
	// exists; if the ring collapsed around us they may still point at the
	// corpse — close them (wqFwd survives, so a future successor resumes
	// from the high-water and repairs the gap via Nack).
	for src, s := range n.wqSenders {
		if s.To() == dead {
			s.Close()
			delete(n.wqSenders, src)
		}
	}
	if n.ringSender != nil && n.ringSender.To() == dead {
		n.ringSender.Close()
		n.ringSender = nil
	}
	// A token transfer in flight to the removed member would retry
	// forever under the wire's unbounded-retry config: cancel it and
	// presume delivered-or-lost. Re-forwarding the held copy here would
	// be unsafe — the member may well have received the transfer (a
	// gracefully-leaving member is alive and forwards the token onward;
	// a crashed one may have acked into the void) and a same-epoch twin
	// causes divergent duplicate assignments. If the token really died,
	// the Token-Loss signal/watchdog regenerates it at a bumped epoch,
	// which supersedes any surviving copy (paper §4.2.1).
	if n.tokenCourier.Busy() && n.tokenCourier.To() == dead {
		n.tokenCourier.Cancel()
		n.tokenExpect = ackExpect{}
		if n.held != nil && !n.holding {
			n.held = nil
		}
	}
	// A regeneration traversal stuck on the corpse is abandoned — NOT
	// restarted from here: regeneration must keep a single origin (the
	// membership plane's designated signaler re-raises Token-Loss while
	// ordering stays silent), or two concurrent traversals restart two
	// same-epoch tokens and assignments diverge.
	if n.regenCourier.Busy() && n.regenCourier.To() == dead {
		n.regenCourier.Cancel()
		n.regenExpect = ackExpect{}
	}
	// Reconfiguration invalidates the regen-traversal dedup stamp: the
	// membership plane legitimately re-raises Token-Loss right after a
	// commit, and that fresh traversal must not be mistaken for a courier
	// retransmit of one that died on the old ring. A true duplicate that
	// slips through dies at its origin's OrdersWell gate.
	n.lastRegen = regenStamp{}
	if n.joinCourier.Busy() && n.joinCourier.To() == dead {
		n.joinCourier.Cancel()
		n.awaitingJoin = false
		n.joinedParent = seq.None
	}
	n.release()
}

// refreshNeighbors re-reads the node's local view from the hierarchy and
// retargets all hop senders accordingly. Called at start and whenever the
// membership protocol mutates topology around this node.
func (n *NE) refreshNeighbors() {
	v, err := n.e.H.Neighbors(n.id)
	if err != nil {
		// Node no longer in the hierarchy: stop everything.
		n.closeAll()
		return
	}
	n.view = v
	// Children order follows the view; senders may be pruned below.
	n.childListDirty = true

	// Top-ring state comes and goes with ring role.
	if v.IsTop {
		if n.wq == nil {
			n.wq = queue.NewWQ()
			n.assign, n.assignFloor = seq.NewWTSNP(), nil
		}
		if n.tauTicker == nil && !n.e.stepped {
			n.tauTicker = n.e.Scheduler().Every(n.e.Cfg.Tau, n.OrderAssign)
		}
	} else if n.tauTicker != nil {
		n.tauTicker.Stop()
		n.tauTicker = nil
	}

	// Ring forwarding stream (non-top rings only; stop before leader).
	wantRing := !v.IsTop && v.Next != seq.None && v.Next != v.Leader && v.Next != n.id
	if wantRing {
		n.e.EnsureLink(n.id, v.Next)
		if n.ringSender == nil {
			n.ringSender = transport.NewSender(n.e.Net, n.id, v.Next, n.e.Cfg.Hop)
			n.wireGiveUp(n.ringSender)
			// Replay retained window so a repaired successor can
			// resynchronize; duplicates are acked away.
			n.catchUpRing()
		} else if n.ringSender.To() != v.Next {
			n.wt.Remove(wtNode(n.ringSender.To()))
			n.ringSender.Retarget(v.Next)
			n.wt.Reset(wtNode(v.Next), n.mq.ValidFront())
		}
	} else if n.ringSender != nil {
		n.wt.Remove(wtNode(n.ringSender.To()))
		n.ringSender.Close()
		n.ringSender = nil
	}

	// Top-ring WQ streams follow the next pointer.
	if v.IsTop && v.Next != seq.None && v.Next != n.id {
		n.e.EnsureLink(n.id, v.Next)
		for _, s := range n.wqSenders {
			s.Retarget(v.Next)
		}
	}

	// Children attach themselves with Join (carrying their resume
	// point); here we only prune senders to children that left.
	want := make(map[seq.NodeID]bool, len(v.Children))
	for _, c := range v.Children {
		want[c] = true
	}
	for c, s := range n.childSenders {
		if !want[c] {
			s.Close()
			delete(n.childSenders, c)
			n.wt.Remove(wtNode(c))
		}
	}

	// Downstream side of the same protocol: any node with a parent
	// (ring leaders, APs) joins the parent's fan-out, re-joining
	// whenever the parent changed. Passive APs wait for members.
	if v.Parent != seq.None && n.joinedParent != v.Parent && (!n.isAP || n.active) {
		n.sendJoin(n.mq.Front())
	}
	n.release()
}

// joinAtCurrent is the Join.Resume sentinel asking the parent to start
// the stream at its current position (join-point semantics for
// reservations and brand-new subtrees). Any other Resume value r means
// "I have delivered up to r; continue from r+1, skipping only what your
// retained window no longer covers".
const joinAtCurrent = ^seq.GlobalSeq(0)

// sendJoin (re)attaches this node to its parent's delivery fan-out.
// The courier re-sends until parent traffic confirms.
func (n *NE) sendJoin(resume seq.GlobalSeq) {
	p := n.view.Parent
	if p == seq.None {
		return
	}
	n.e.EnsureLink(n.id, p)
	n.awaitingJoin = true
	n.joinedParent = p
	n.joinCourier.Deliver(p, &msg.Join{Group: n.e.Group, Node: n.id, Resume: resume})
}

func (n *NE) addChildSender(c seq.NodeID, start seq.GlobalSeq) *transport.Sender {
	n.e.EnsureLink(n.id, c)
	s := transport.NewSender(n.e.Net, n.id, c, n.e.Cfg.Hop)
	n.wireGiveUp(s)
	n.childSenders[c] = s
	n.childListDirty = true
	n.wt.Reset(wtNode(c), start)
	return s
}

// wireGiveUp converts sender give-up into an in-stream Skip so the
// downstream neighbor can apply the really-lost rule instead of stalling.
func (n *NE) wireGiveUp(s *transport.Sender) {
	s.OnGiveUp = func(sn uint64) {
		g := seq.GlobalSeq(sn)
		s.Send(sn, &msg.Skip{Group: n.e.Group, From: n.id, Range: seq.Range{Min: uint64(g), Max: uint64(g)}})
	}
	n.instrumentSender(s)
}

// instrumentSender counts the sender's retransmissions by cause on the
// live plane and places each on the trace timeline, so a slow sampled
// delivery can be attributed to loss recovery instead of an anonymous
// gap. Only installed when an instrument is attached — the simulator
// path keeps a nil callback.
func (n *NE) instrumentSender(s *transport.Sender) {
	tel := &n.e.Tel
	tr := tel.Trace
	if !tr.Active() && tel.HopTimeoutRetransmits == nil && tel.HopGapRetransmits == nil {
		return
	}
	s.OnRetransmit = func(m msg.Message, gap bool) {
		if gap {
			tel.HopGapRetransmits.Inc()
		} else {
			tel.HopTimeoutRetransmits.Inc()
		}
		if d, ok := m.(*msg.Data); ok && tr.Active() {
			tr.Span(telemetry.StageRetransmit, uint32(n.e.Group), uint32(d.SourceNode), uint64(d.LocalSeq), uint64(d.GlobalSeq), uint32(s.To()))
		}
	}
}

// The working table keys one uint32 namespace over both child network
// entities and attached mobile hosts. The two identity spaces overlap
// (HostIDs and NodeIDs are both small integers), so host keys are mapped
// through the MH network-identity offset, which spawnNE guarantees no NE
// identity can reach — a child NE and an MH with the same numeric ID can
// never collide in one WT.

// wtNode returns the WT key of a downstream network entity.
func wtNode(id seq.NodeID) uint32 { return uint32(id) }

// wtHost returns the WT key of an attached mobile host, offset into the
// disjoint MH identity range.
func wtHost(h seq.HostID) uint32 { return uint32(MHNodeID(h)) }

func (n *NE) closeAll() {
	if n.tauTicker != nil {
		n.tauTicker.Stop()
		n.tauTicker = nil
	}
	n.ack.timer.Stop()
	n.ack = ackPending{}
	if n.ringSender != nil {
		n.ringSender.Close()
		n.ringSender = nil
	}
	for _, s := range n.wqSenders {
		s.Close()
	}
	for _, s := range n.childSenders {
		s.Close()
	}
	for _, s := range n.mhSenders {
		s.Close()
	}
	n.tokenCourier.Cancel()
	n.regenCourier.Cancel()
	n.joinCourier.Cancel()
}

// --- source intake (top ring) ---

// acceptSource receives one message from this node's multicast source
// (paper: at most one source per top-ring node).
func (n *NE) acceptSource(l seq.LocalSeq, payload []byte) {
	if n.failed || n.wq == nil {
		return
	}
	d := &msg.Data{Group: n.e.Group, SourceNode: n.id, LocalSeq: l, Payload: payload}
	if n.wq.ForSource(n.id).Insert(d) {
		n.forwardWQ(n.id)
	}
}

// handleWQData is the top-ring Message-Forwarding receive path for
// not-yet-ordered messages.
func (n *NE) handleWQData(from seq.NodeID, d *msg.Data) {
	if n.wq == nil {
		return // not a top-ring node (stale delivery after role change)
	}
	if d.AckCum != 0 {
		n.applyCumAck(from, d.AckCum)
	}
	sq := n.wq.ForSource(d.SourceNode)
	fresh := sq.Insert(d)
	if fresh {
		n.e.Tel.Trace.Span(telemetry.StageWQAccept, uint32(n.e.Group), uint32(d.SourceNode), uint64(d.LocalSeq), 0, uint32(from))
	}
	if !fresh && d.LocalSeq <= sq.MaxOrdered() && n.e.Cfg.NackBroadcastAfter > 0 {
		// Reconfiguration repair (wire deployments): ordered-data SkipTo
		// may have advanced this queue past locals whose bodies we never
		// received, while their MQ slots still gape. The origin's
		// retransmission carries exactly those bodies — and the origin
		// may be their only holder (it is draining out of the ring) — so
		// rejecting the "duplicate" here would ack the body away forever.
		// Stamp it with its known assignment and fill the slot directly.
		if g, ord, ok := n.lookupAssignment(d.SourceNode, d.LocalSeq); ok {
			if sl := n.mq.Get(g); sl != nil && !sl.Received && !sl.Delivered {
				stamped := d.Clone()
				stamped.OrderingNode = ord
				stamped.GlobalSeq = g
				if _, err := n.mq.Insert(stamped); err == nil {
					n.deliverLoop()
				}
			}
		}
	}
	// Register the cumulative per-source ack owed to the sender; it
	// coalesces with acks for other sources on the same hop and rides
	// the next TokenAck when the token beats the AckDelay timer.
	n.noteWQAck(from, d.SourceNode)
	if !fresh || sq.CumReceived() < d.LocalSeq {
		// Duplicate (our ack was lost — the sender is retransmitting) or
		// an out-of-order arrival (a gap upstream): flush immediately so
		// the sender releases what arrived and, told by the Ack's gap
		// report what lies past the hole, resends what is missing now
		// instead of at its timeout. Coalescing must not add
		// retransmission latency.
		n.flushAcks()
	}
	n.forwardWQ(d.SourceNode)
	n.orderAssignSource(d.SourceNode)
}

// forwardWQ pushes newly contiguous messages from src's queue to the next
// ring node, unless the next node is the message's corresponding node
// (paper §4.2.2 condition (A)).
func (n *NE) forwardWQ(src seq.NodeID) {
	nx := n.view.Next
	if nx == seq.None || nx == n.id || nx == src {
		return
	}
	sq := n.wq.ForSource(src)
	cum := sq.CumReceived()
	if cum <= n.wqFwd[src] {
		return
	}
	s := n.wqSenders[src]
	if s == nil {
		n.e.EnsureLink(n.id, nx)
		s = transport.NewSender(n.e.Net, n.id, nx, n.e.Cfg.Hop)
		n.instrumentSender(s)
		n.wqSenders[src] = s
	}
	for l := n.wqFwd[src] + 1; l <= cum; l++ {
		d := sq.Get(l)
		if d == nil {
			if l <= sq.MaxOrdered() {
				// Ordered away before this hop forwarded it — possible only
				// after a successor change (the forwarding high-water
				// belongs to the previous successor). The body lives in MQ
				// now; the new successor obtains it through its own
				// ordering (or Nack repair), so the WQ stream skips it
				// instead of stalling on the vacated slot forever.
				n.wqFwd[src] = l
				continue
			}
			break
		}
		s.Send(uint64(l), d)
		n.wqFwd[src] = l
	}
}

// --- ordered data path (Message-Forwarding in non-top rings +
// Message-Delivering everywhere) ---

func (n *NE) handleOrderedData(from seq.NodeID, d *msg.Data) {
	n.confirmJoin(from)
	if d.AckCum != 0 {
		n.applyCumAck(from, d.AckCum)
	}
	fresh, err := n.mq.Insert(d)
	if err != nil {
		// MQ full: drop without ack; upstream retransmission provides
		// backpressure until release frees space.
		return
	}
	// A top-ring node may learn a body through gap repair before its WQ
	// copy arrives; keep the WQ mark consistent.
	if n.wq != nil && d.SourceNode != seq.None {
		if n.e.Cfg.NackBroadcastAfter > 0 {
			// Wire deployments advance the mark honestly: never past a
			// local whose assigned MQ slot still lacks its body. The mark
			// feeds the cumulative stream ack, and over-acking releases
			// the upstream's retransmission state — which may be the last
			// copy of exactly that body when the upstream is draining out
			// of a reconfigured ring.
			n.advanceWQOrdered(d.SourceNode, d.LocalSeq)
		} else {
			n.wq.ForSource(d.SourceNode).SkipTo(d.LocalSeq)
		}
	}
	n.deliverLoop()
	n.noteAck(from)
	if !fresh || n.mq.Front() < n.mq.Rear() {
		// Duplicate (lost-ack repair) or an open gap past the delivery
		// front: acknowledge immediately so the upstream releases what
		// we hold and retransmits only the missing range.
		n.flushAcks()
	}
}

// advanceWQOrdered moves a source queue's ordered mark up to upTo,
// skipping only locals that are buffered-free AND whose assigned global
// slot (when known) no longer needs a body. A local whose MQ slot still
// gapes holds the mark — and therefore the cumulative ack — so the
// upstream keeps retransmitting the body until it actually lands.
func (n *NE) advanceWQOrdered(src seq.NodeID, upTo seq.LocalSeq) {
	sq := n.wq.ForSource(src)
	for l := sq.MaxOrdered() + 1; l <= upTo; l++ {
		if sq.Get(l) != nil {
			break // body buffered: normal ordering consumes it
		}
		if g, _, ok := n.lookupAssignment(src, l); ok {
			if sl := n.mq.Get(g); sl != nil && !sl.Received && !sl.Delivered {
				break // body still needed in the MQ: hold the ack basis
			}
		}
		sq.SkipTo(l)
	}
}

// confirmJoin stops the Join retry loop once the parent's stream starts.
func (n *NE) confirmJoin(from seq.NodeID) {
	if n.awaitingJoin && from == n.view.Parent {
		n.awaitingJoin = false
		n.joinCourier.Confirm()
	}
}

func (n *NE) handleSkip(from seq.NodeID, s *msg.Skip) {
	n.confirmJoin(from)
	if s.AckCum != 0 {
		n.applyCumAck(from, s.AckCum)
	}
	stale := false
	max := seq.GlobalSeq(s.Range.Max)
	switch {
	case max <= n.mq.Front():
		// Entirely in the past: re-acknowledge immediately (the sender
		// is retransmitting, so an earlier ack was lost or delayed).
		stale = true
	case s.Jump && n.mq.Rear() == 0:
		// Stream-position baseline for a node that joined mid-stream:
		// jump the whole window and tell our own downstream about the
		// new baseline.
		n.mq.ForceRelease(max)
		n.fanoutJump(max)
	default:
		lo := s.Range.Min
		if f := uint64(n.mq.Front()); lo <= f {
			lo = f + 1
		}
		for g := lo; g <= s.Range.Max; g++ {
			if err := n.mq.InsertLost(seq.GlobalSeq(g)); err != nil {
				break
			}
			src, l, _ := n.sourceForGlobal(seq.GlobalSeq(g))
			n.noteLost(seq.GlobalSeq(g), src, l, "skip")
		}
	}
	n.deliverLoop()
	n.noteAck(from)
	if stale || n.mq.Front() < n.mq.Rear() {
		n.flushAcks()
	}
}

// fanoutJump propagates a join-point baseline downstream: everything at
// or below g predates this subtree's membership.
func (n *NE) fanoutJump(g seq.GlobalSeq) {
	sk := &msg.Skip{Group: n.e.Group, From: n.id, Range: seq.Range{Min: 1, Max: uint64(g)}, Jump: true}
	if n.ringSender != nil {
		n.ringSender.Send(uint64(g), sk)
	}
	for _, cs := range n.sortedChildSenders() {
		cs.Send(uint64(g), sk)
	}
	for _, hs := range n.sortedMHSenders() {
		hs.Send(uint64(g), sk)
	}
}

// --- pending-acknowledgement register ---

// noteAck registers a pending cumulative ordered-stream ack to the
// upstream neighbor, to be flushed within Cfg.AckDelay (or piggybacked
// on traffic already headed there). Pressure conditions flush at once.
func (n *NE) noteAck(to seq.NodeID) {
	if to == n.id || to == seq.None {
		return
	}
	if n.ack.to != to {
		n.flushAcks() // upstream changed: settle the old neighbor first
		n.ack.to = to
	}
	n.ack.global = true
	if n.ackPressure() {
		n.flushAcks()
		return
	}
	n.armAckTimer()
}

// noteWQAck registers a pending per-source WQ cumulative ack to the ring
// predecessor forwarding that source's stream.
func (n *NE) noteWQAck(to, src seq.NodeID) {
	if to == n.id || to == seq.None {
		return
	}
	if n.ack.to != to {
		n.flushAcks()
		n.ack.to = to
	}
	found := false
	for _, s := range n.ack.sources {
		if s == src {
			found = true
			break
		}
	}
	if !found {
		n.ack.sources = append(n.ack.sources, src)
	}
	n.armAckTimer()
}

func (n *NE) armAckTimer() {
	if n.e.Cfg.AckDelay <= 0 {
		n.flushAcks() // coalescing disabled: seed behavior, ack per event
		return
	}
	if !n.ack.timer.Pending() {
		n.ack.timer = n.e.Scheduler().After(n.e.Cfg.AckDelay, n.ackFlush)
	}
}

// ackPressure reports whether the pending global ack must not wait for
// the timer: the upstream retains every slot we have not acknowledged
// (beyond its RetainExtra allowance), and our own MQ window nearing
// capacity means release progress upstream is urgent. Flushing here
// keeps garbage-collection behavior equivalent to per-message acks.
func (n *NE) ackPressure() bool {
	if re := n.e.Cfg.RetainExtra; re > 0 {
		if front := n.mq.Front(); front > n.ack.sentCum && int(front-n.ack.sentCum) >= re {
			return true
		}
	}
	return 4*n.mq.Len() >= 3*n.mq.MaxNo()
}

// flushAcks sends the pending register as one coalesced Ack (multi-source
// WQ cums batched with the global cum) and clears it.
func (n *NE) flushAcks() {
	if !n.ack.dirty() {
		n.ack.timer.Stop()
		return
	}
	m := n.buildAck()
	n.e.Net.Send(n.id, n.ack.to, m)
}

// buildAck materializes the register's coalesced Ack and clears it. The
// global cum is always included — receivers apply it only when the
// sender is a tracked downstream, and cumulative acks are monotone, so
// over-reporting is harmless. A source whose queue holds messages past
// its cumulative mark is also named in the gap report, with the highest
// local held, so the sender repairs the hole in one round trip.
func (n *NE) buildAck() *msg.Ack {
	a := &n.ack
	m := &msg.Ack{Group: n.e.Group, From: n.id, CumGlobal: n.mq.Front()}
	if len(a.sources) > 0 && n.wq != nil {
		// Insertion sort: the batch is tiny (one entry per upstream
		// source) and must be deterministic across runs.
		srcs := a.sources
		for i := 1; i < len(srcs); i++ {
			for j := i; j > 0 && srcs[j] < srcs[j-1]; j-- {
				srcs[j], srcs[j-1] = srcs[j-1], srcs[j]
			}
		}
		m.Batch = make([]msg.SourceCum, 0, len(srcs))
		for _, src := range srcs {
			sq := n.wq.ForSource(src)
			cum := sq.CumReceived()
			m.Batch = append(m.Batch, msg.SourceCum{Source: src, Cum: cum})
			if hi := sq.MaxReceived(); hi > cum {
				m.Gaps = append(m.Gaps, msg.SourceGap{Source: src, Above: hi})
			}
		}
	}
	a.sentCum = m.CumGlobal
	a.global = false
	a.sources = a.sources[:0]
	a.timer.Stop()
	return m
}

// takePendingAck drains the register if it is owed to exactly `to`,
// returning the coalesced Ack for piggybacking (nil otherwise).
func (n *NE) takePendingAck(to seq.NodeID) *msg.Ack {
	if n.ack.to != to || !n.ack.dirty() {
		return nil
	}
	return n.buildAck()
}

// takeCumFor drains the register's global-ack aspect when an ordered
// frame is about to be sent to the very neighbor the ack is owed to
// (degenerate rings and repair transients), returning the cum to
// piggyback (0 otherwise). WQ source acks cannot ride ordered frames and
// stay registered.
func (n *NE) takeCumFor(to seq.NodeID) seq.GlobalSeq {
	if n.ack.to != to || !n.ack.global {
		return 0
	}
	n.ack.global = false
	n.ack.sentCum = n.mq.Front()
	if len(n.ack.sources) == 0 {
		n.ack.timer.Stop()
	}
	return n.mq.Front()
}

// applyCumAck applies a piggybacked cumulative global ack carried by an
// ordered Data/Skip frame from a downstream-tracked neighbor.
func (n *NE) applyCumAck(from seq.NodeID, cum seq.GlobalSeq) {
	if n.ringSender != nil && from == n.ringSender.To() {
		n.ringSender.Ack(uint64(cum))
		n.wt.Set(wtNode(from), cum)
	} else if s := n.childSenders[from]; s != nil {
		s.Ack(uint64(cum))
		n.wt.Set(wtNode(from), cum)
	} else {
		return
	}
	n.release()
}

// deliverLoop advances the delivery front over the whole contiguous
// deliverable run in one MQ slot pass, then fans the run out to the ring
// successor (non-top rings), active children, and attached MHs — one
// burst per hop instead of one send per message. Really-lost gaps
// propagate as Skip frames inside the run.
func (n *NE) deliverLoop() {
	if n.deliveryHold {
		return
	}
	lo, hi := n.mq.AdvanceRun()
	if hi >= lo {
		n.e.Tel.Front.Set(int64(hi))
		if h := n.e.OnDeliver; h != nil {
			tr := n.e.Tel.Trace
			for g := lo; g <= hi; g++ {
				if d := n.mq.Data(g); d != nil {
					tr.Span(telemetry.StageMQReady, uint32(n.e.Group), uint32(d.SourceNode), uint64(d.LocalSeq), uint64(g), 0)
					h(n.id, d)
					tr.Span(telemetry.StageDeliver, uint32(n.e.Group), uint32(d.SourceNode), uint64(d.LocalSeq), uint64(g), 0)
				}
			}
		}
		n.fanoutRun(lo, hi)
	}
	n.release()
}

// fanoutRun materializes the delivered run [lo, hi] once — bodies from
// MQ, Skip frames for really-lost gaps — and sends it to every hop as a
// single burst (one netsim event per hop on jitter-free links).
func (n *NE) fanoutRun(lo, hi seq.GlobalSeq) {
	run := n.runScratch[:0]
	for g := lo; g <= hi; g++ {
		if d := n.mq.Data(g); d != nil {
			run = append(run, d)
		} else {
			run = append(run, &msg.Skip{Group: n.e.Group, From: n.id, Range: seq.Range{Min: uint64(g), Max: uint64(g)}})
		}
	}
	n.runScratch = run
	if n.ringSender != nil {
		n.sendRunTo(n.ringSender, lo, run)
	}
	for _, cs := range n.sortedChildSenders() {
		n.sendRunTo(cs, lo, run)
	}
	for _, hs := range n.sortedMHSenders() {
		n.sendRunTo(hs, lo, run)
	}
	for i := range run {
		run[i] = nil // senders hold their own references; drop ours
	}
}

// sendRunTo sends one hop's copy of the run, piggybacking the pending
// global ack when the hop's destination happens to be the neighbor the
// ack is owed to. The register is drained only when the head frame will
// actually transmit (an already-acked or outstanding head would drop
// the annotation on the floor). The run is shared across hops, so the
// head frame is swapped for an annotated copy rather than mutated.
func (n *NE) sendRunTo(s *transport.Sender, lo seq.GlobalSeq, run []msg.Message) {
	var cum seq.GlobalSeq
	if s.Unsent(uint64(lo)) {
		cum = n.takeCumFor(s.To())
	}
	if cum == 0 {
		s.SendRun(uint64(lo), run)
		return
	}
	head := run[0]
	switch v := head.(type) {
	case *msg.Data:
		d := v.Clone()
		d.AckCum = cum
		run[0] = d
	case *msg.Skip:
		sk := *v
		sk.AckCum = cum
		run[0] = &sk
	}
	s.SendRun(uint64(lo), run)
	run[0] = head
}

// sortedChildSenders returns the child senders in deterministic order.
// The returned slice is a cache owned by the NE; callers must not mutate
// or retain it.
func (n *NE) sortedChildSenders() []*transport.Sender {
	if len(n.childSenders) == 0 {
		return nil
	}
	if !n.childListDirty {
		return n.childList
	}
	out := n.childList[:0]
	for _, c := range n.view.Children {
		if s := n.childSenders[c]; s != nil {
			out = append(out, s)
		}
	}
	// Senders for children not in the current view (rare transient)
	// still need service; order them by child ID so the cached fanout
	// order stays deterministic across runs.
	if len(out) != len(n.childSenders) {
		seen := make(map[*transport.Sender]bool, len(out))
		for _, s := range out {
			seen[s] = true
		}
		extra := make([]seq.NodeID, 0, len(n.childSenders)-len(out))
		for c, s := range n.childSenders {
			if !seen[s] {
				extra = append(extra, c)
			}
		}
		slices.Sort(extra)
		for _, c := range extra {
			out = append(out, n.childSenders[c])
		}
	}
	n.childList = out
	n.childListDirty = false
	return out
}

// sortedMHSenders returns the MH senders in deterministic order. The
// returned slice is a cache owned by the NE; callers must not mutate or
// retain it.
func (n *NE) sortedMHSenders() []*transport.Sender {
	if len(n.mhSenders) == 0 {
		return nil
	}
	if !n.mhListDirty {
		return n.mhList
	}
	hosts := n.hostScratch[:0]
	for h := range n.mhSenders {
		hosts = append(hosts, h)
	}
	slices.Sort(hosts) // deterministic order
	n.hostScratch = hosts
	out := n.mhList[:0]
	for _, h := range hosts {
		out = append(out, n.mhSenders[h])
	}
	n.mhList = out
	n.mhListDirty = false
	return out
}

// --- acknowledgements and garbage collection ---

func (n *NE) handleAck(from seq.NodeID, a *msg.Ack) { n.applyAck(from, a) }

// applyAck processes a coalesced acknowledgement, whether it arrived as
// a standalone Ack or piggybacked on a TokenAck.
func (n *NE) applyAck(from seq.NodeID, a *msg.Ack) {
	// Batched per-source WQ acks from the next ring node, then its gap
	// reports: what it holds past each hole is resent below at once.
	if len(a.Batch) > 0 && from == n.view.Next {
		for _, sc := range a.Batch {
			if s := n.wqSenders[sc.Source]; s != nil {
				s.Ack(uint64(sc.Cum))
			}
		}
		for _, g := range a.Gaps {
			if s := n.wqSenders[g.Source]; s != nil {
				s.Repair(uint64(g.Above))
			}
		}
	}
	if a.Source != seq.None {
		// Single-source WQ ack (legacy form).
		if from == n.view.Next {
			if s := n.wqSenders[a.Source]; s != nil {
				s.Ack(uint64(a.CumLocal))
			}
		}
		return
	}
	if n.ringSender != nil && from == n.ringSender.To() {
		n.ringSender.Ack(uint64(a.CumGlobal))
		n.wt.Set(wtNode(from), a.CumGlobal)
	} else if s := n.childSenders[from]; s != nil {
		s.Ack(uint64(a.CumGlobal))
		n.wt.Set(wtNode(from), a.CumGlobal)
	}
	n.release()
}

func (n *NE) handleProgress(from seq.NodeID, p *msg.Progress) {
	if p.Host != 0 {
		if s := n.mhSenders[p.Host]; s != nil {
			s.Ack(uint64(p.Max))
			n.wt.Set(wtHost(p.Host), p.Max)
			n.release()
		}
		return
	}
	// NE progress reports feed WT directly (used by membership-driven
	// reporting paths).
	n.wt.Set(wtNode(p.Child), p.Max)
	n.release()
}

// release advances ValidFront to the minimum downstream progress, keeping
// RetainExtra delivered slots for handoff catch-up.
func (n *NE) release() {
	target := n.mq.Front()
	if min, ok := n.wt.Min(); ok && min < target {
		target = min
	}
	retain := seq.GlobalSeq(n.e.Cfg.RetainExtra)
	if target <= retain {
		return
	}
	target -= retain
	if target > n.mq.ValidFront() {
		n.mq.ReleaseUpTo(target)
	}
}

// catchUpRing replays this node's retained ordered window to a fresh ring
// successor.
func (n *NE) catchUpRing() {
	if n.ringSender == nil {
		return
	}
	n.wt.Reset(wtNode(n.ringSender.To()), n.mq.ValidFront())
	if vf := n.mq.ValidFront(); vf > 0 {
		// Baseline for a successor that may be virgin.
		n.ringSender.Send(uint64(vf), &msg.Skip{Group: n.e.Group, From: n.id, Range: seq.Range{Min: 1, Max: uint64(vf)}, Jump: true})
	}
	for g := n.mq.ValidFront() + 1; g <= n.mq.Front(); g++ {
		if d := n.mq.Data(g); d != nil {
			n.ringSender.Send(uint64(g), d)
		} else {
			n.ringSender.Send(uint64(g), &msg.Skip{Group: n.e.Group, From: n.id, Range: seq.Range{Min: uint64(g), Max: uint64(g)}})
		}
	}
}

// --- gap repair (Nack) ---

func (n *NE) handleNack(from seq.NodeID, nk *msg.Nack) {
	n.ctrNacks++
	n.e.Tel.NacksServed.Inc()
	// A broadcast Nack can come from a non-neighbor the topology has no
	// return link to yet — links are directional, and an unlinked Send
	// is silently dropped, which would let the requester's fruitless
	// rounds climb all the way to the really-lost give-up on a body we
	// are holding right here.
	n.e.EnsureLink(n.id, from)
	for g := nk.Range.Min; g <= nk.Range.Max; g++ {
		if d := n.mq.Data(seq.GlobalSeq(g)); d != nil {
			n.e.Net.Send(n.id, from, d)
			n.e.Tel.Trace.Span(telemetry.StageNackServe, uint32(n.e.Group), uint32(d.SourceNode), uint64(d.LocalSeq), g, uint32(from))
		}
	}
}

// --- AP activity protocol ---

// attachHostFresh binds a brand-new member with join-point semantics:
// the stream starts wherever the group currently is; the baseline Jump
// propagates the exact position to the MH.
func (n *NE) attachHostFresh(h seq.HostID) {
	if !n.isAP {
		return
	}
	if !n.active {
		if n.mq.Rear() == 0 {
			n.activate(joinAtCurrent)
		} else {
			n.activate(n.mq.Front())
		}
	}
	n.attachHost(h, n.mq.Front())
}

// attachHost binds a mobile host to this AP and starts (or resumes) its
// ordered stream at start+1, skipping anything below the retained window.
func (n *NE) attachHost(h seq.HostID, start seq.GlobalSeq) {
	if !n.isAP {
		return
	}
	if !n.active {
		n.activate(start)
	}
	n.e.EnsureLink(n.id, MHNodeID(h))
	if old := n.mhSenders[h]; old != nil {
		old.Close()
	}
	s := transport.NewSender(n.e.Net, n.id, MHNodeID(h), n.e.Cfg.Wireless)
	n.wireGiveUp(s)
	n.mhSenders[h] = s
	n.mhListDirty = true
	s.Ack(uint64(start)) // nothing at or below the resume point is ever sent
	eff := start
	if vf := n.mq.ValidFront(); vf > eff {
		// The retained window no longer covers the MH's resume point:
		// the gap is really lost to this MH. The Skip rides the stream
		// (seqno vf) so it is retransmitted until the MH acknowledges.
		s.Send(uint64(vf), &msg.Skip{Group: n.e.Group, From: n.id, Range: seq.Range{Min: uint64(start) + 1, Max: uint64(vf)}})
		eff = vf
	}
	n.wt.Reset(wtHost(h), eff)
	for g := eff + 1; g <= n.mq.Front(); g++ {
		if d := n.mq.Data(g); d != nil {
			s.Send(uint64(g), d)
		} else {
			s.Send(uint64(g), &msg.Skip{Group: n.e.Group, From: n.id, Range: seq.Range{Min: uint64(g), Max: uint64(g)}})
		}
	}
	n.lingerTimer.Stop()
}

func (n *NE) detachHost(h seq.HostID) {
	if s := n.mhSenders[h]; s != nil {
		s.Close()
		delete(n.mhSenders, h)
		n.mhListDirty = true
	}
	n.wt.Remove(wtHost(h))
	n.release()
	if len(n.mhSenders) == 0 && n.active {
		// Linger before leaving the tree (hysteresis).
		n.armLinger()
	}
}

func (n *NE) armLinger() {
	n.lingerTimer.Stop()
	n.lingerTimer = n.e.Scheduler().After(n.e.Cfg.Linger, n.maybeDeactivate)
}

func (n *NE) maybeDeactivate() {
	if !n.active || len(n.mhSenders) > 0 {
		return
	}
	if n.now() < n.reservedUntil {
		// Re-check when the reservation expires.
		n.e.Scheduler().At(n.reservedUntil, func() { n.maybeDeactivate() })
		return
	}
	n.active = false
	n.awaitingJoin = false
	n.joinedParent = seq.None
	n.joinCourier.Cancel()
	n.e.Net.Send(n.id, n.view.Parent, &msg.Leave{Group: n.e.Group, Node: n.id})
}

// activate (re)attaches this AP to the delivery tree via its parent.
// resume == joinAtCurrent requests the stream from the parent's current
// position (reservations); any other value resumes the AP's own stream
// position (or jumps a virgin queue to resume first).
func (n *NE) activate(resume seq.GlobalSeq) {
	if n.active {
		return
	}
	n.active = true
	n.joinedParent = seq.None
	if resume == joinAtCurrent {
		if n.view.Parent != seq.None {
			n.sendJoin(joinAtCurrent)
		}
		return
	}
	if n.mq.Rear() == 0 && resume > 0 {
		n.mq.ForceRelease(resume)
	}
	// The Join goes out now if the neighbor view is ready, otherwise
	// refreshNeighbors sends it once the view materializes (engine
	// start order).
	if n.view.Parent != seq.None {
		n.sendJoin(n.mq.Front())
	}
}

// handleJoin attaches a child AP to this node's delivery fan-out.
func (n *NE) handleJoin(from seq.NodeID, j *msg.Join) {
	if j.Node == seq.None {
		return // MH-level membership joins are bookkeeping (membership pkg)
	}
	c := j.Node
	// A Join always rebuilds the child's stream: courier retries are
	// rare (the child confirms on first parent traffic) and a child
	// that crashed and reset genuinely needs the rebuild; duplicates
	// cost only re-acked retransmissions.
	if s := n.childSenders[c]; s != nil {
		s.Close()
		delete(n.childSenders, c)
		n.wt.Remove(wtNode(c))
	}
	start := j.Resume
	fresh := start == joinAtCurrent
	if fresh {
		start = n.mq.Front() // join-point semantics: from now on
	}
	s := n.addChildSender(c, start)
	eff := start
	if fresh {
		// Tell the virgin child where the stream begins. The baseline
		// Skip rides the sequenced stream so it is retransmitted until
		// the child acknowledges it.
		if start > 0 {
			s.Send(uint64(start), &msg.Skip{Group: n.e.Group, From: n.id, Range: seq.Range{Min: 1, Max: uint64(start)}, Jump: true})
		}
	} else {
		s.Ack(uint64(start)) // nothing at or below the resume point is sent
		if vf := n.mq.ValidFront(); vf > eff {
			// The resume point fell off the retained window: the gap is
			// really lost to this child.
			s.Send(uint64(vf), &msg.Skip{Group: n.e.Group, From: n.id, Range: seq.Range{Min: uint64(start) + 1, Max: uint64(vf)}})
			eff = vf
			n.wt.Reset(wtNode(c), eff)
		}
	}
	for g := eff + 1; g <= n.mq.Front(); g++ {
		if d := n.mq.Data(g); d != nil {
			s.Send(uint64(g), d)
		} else {
			s.Send(uint64(g), &msg.Skip{Group: n.e.Group, From: n.id, Range: seq.Range{Min: uint64(g), Max: uint64(g)}})
		}
	}
}

func (n *NE) handleLeave(from seq.NodeID, l *msg.Leave) {
	if l.Node == seq.None {
		return
	}
	if s := n.childSenders[l.Node]; s != nil {
		s.Close()
		delete(n.childSenders, l.Node)
		n.childListDirty = true
	}
	n.wt.Remove(wtNode(l.Node))
	n.release()
}

// handleHandoffNotify resumes delivery for an arriving MH and triggers
// multicast path reservation at nearby APs (paper §3).
func (n *NE) handleHandoffNotify(from seq.NodeID, hn *msg.HandoffNotify) {
	n.attachHost(hn.Host, hn.Delivered)
	if old := n.e.nes[hn.OldAP]; old != nil && !old.failed {
		old.detachHost(hn.Host)
	}
}

// reserveNearby asks sibling APs (same parent) to pre-establish paths.
func (n *NE) reserveNearby() {
	p := n.e.H.Node(n.view.Parent)
	if p == nil {
		return
	}
	for _, sib := range p.Children {
		if sib == n.id {
			continue
		}
		if sn := n.e.H.Node(sib); sn == nil || sn.Tier != topology.TierAP {
			continue
		}
		n.e.EnsureLink(n.id, sib)
		n.e.Net.Send(n.id, sib, &msg.Reserve{Group: n.e.Group, From: n.id, TTL: 1})
	}
}

func (n *NE) handleReserve(from seq.NodeID, r *msg.Reserve) {
	if !n.isAP {
		return
	}
	until := n.now() + n.e.Cfg.ReserveFor
	if until > n.reservedUntil {
		n.reservedUntil = until
	}
	if !n.active {
		// A reserved AP has no member with history: join at the
		// group's current position.
		if n.mq.Rear() == 0 {
			n.activate(joinAtCurrent)
		} else {
			n.activate(n.mq.Front())
		}
	}
	// A memberless reservation must eventually lapse even though no
	// member detach will ever arm the linger timer.
	if len(n.mhSenders) == 0 {
		n.e.Scheduler().At(n.reservedUntil+1, func() { n.maybeDeactivate() })
	}
}

// --- metrics helpers ---

func (n *NE) outstanding() int {
	total := 0
	if n.ringSender != nil {
		total += n.ringSender.Outstanding()
	}
	for _, s := range n.wqSenders {
		total += s.Outstanding()
	}
	for _, s := range n.childSenders {
		total += s.Outstanding()
	}
	for _, s := range n.mhSenders {
		total += s.Outstanding()
	}
	return total
}

func (n *NE) retransmissions() uint64 {
	total := n.tokenCourier.Retransmissions + n.regenCourier.Retransmissions + n.joinCourier.Retransmissions
	if n.ringSender != nil {
		total += n.ringSender.Retransmissions
	}
	for _, s := range n.wqSenders {
		total += s.Retransmissions + s.Repairs
	}
	for _, s := range n.childSenders {
		total += s.Retransmissions
	}
	for _, s := range n.mhSenders {
		total += s.Retransmissions
	}
	return total
}

// DebugState renders the node's ordering/repair state — the first thing
// to read when a wire deployment fails to converge.
func (n *NE) DebugState() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "NE %v: mq front=%d rear=%d validFront=%d nacks=%d frontRounds=%d regens=%d destroys=%d tokenSeen=%v lastToken=%v holding=%v held=%v safeHorizon=%d\n",
		n.id, n.mq.Front(), n.mq.Rear(), n.mq.ValidFront(), n.ctrNacks, n.frontRounds, n.ctrRegens, n.ctrTokenDestroys,
		n.tokenSeen, n.lastToken, n.holding, n.held != nil, n.safeHorizon)
	if src, l, ok := n.sourceForGlobal(n.mq.Front() + 1); ok {
		fmt.Fprintf(&sb, "  front+1 assigned to src %v local %d (in hierarchy: %v)\n", src, l, n.e.H.Node(src) != nil)
	} else {
		fmt.Fprintf(&sb, "  front+1 assignment unresolvable here\n")
	}
	for g, k := n.mq.Front()+1, 0; g <= n.mq.Rear() && k < 8; g, k = g+1, k+1 {
		sl := n.mq.Get(g)
		if sl == nil {
			fmt.Fprintf(&sb, "  g=%d: outside window\n", g)
			continue
		}
		fmt.Fprintf(&sb, "  g=%d: received=%v delivered=%v waiting=%v\n", g, sl.Received, sl.Delivered, sl.Waiting)
	}
	if n.wq != nil {
		for _, src := range n.wq.Sources() {
			sq := n.wq.ForSource(src)
			hw := n.assignedHighWater(src)
			l := sq.MaxOrdered() + 1
			g, ord, ok := n.lookupAssignment(src, l)
			fmt.Fprintf(&sb, "  src %v: ordered=%d cum=%d maxRecv=%d buffered=%d assignedHW=%d compacted=%d next(l=%d): g=%d ord=%v known=%v stallRounds=%d\n",
				src, sq.MaxOrdered(), sq.CumReceived(), sq.MaxReceived(), sq.Len(), hw, n.assignFloor[src], l, g, ord, ok, n.stallRounds[src])
		}
	}
	return sb.String()
}
