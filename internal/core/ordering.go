package core

import (
	"fmt"

	"repro/internal/msg"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// This file implements the top-ring algorithms of paper §4.2.1: token
// circulation (Message-Ordering), the periodic Order-Assignment that
// copies ordered messages from WQ to MQ, Token-Regeneration after token
// loss, and Multiple-Token filtering after ring merges.

// handleToken processes an arriving OrderingToken. Steps (paper §4.2.1):
// update WTSNP and NextGlobalSeqNo from the holder's unordered source
// messages, keep the token as NewOrderingToken (shifting the previous one
// to OldOrderingToken), then reliably transfer it to the next node.
func (n *NE) handleToken(from seq.NodeID, tok *seq.Token) {
	if n.failed || tok == nil {
		return
	}
	// Acknowledge receipt to the sender so its courier stops
	// retransmitting (even for duplicates we then discard), and keep the
	// version acknowledged as the base of the sender's next delta.
	if from != n.id {
		n.ackToken(from, tok.Epoch, tok.Hops, tok.NextGlobalSeq)
		n.keepRxBase(from, tok)
	}
	if n.swallowsToken(tok.Epoch, tok.Hops) {
		n.countTokenDestroy()
		return
	}
	// Back around the ring, the token proves the successor received the
	// version sent last, even if its acknowledgement has not arrived.
	if s := n.tokenSent; s != nil && tok.Epoch == s.tok.Epoch && tok.Hops > s.tok.Hops {
		n.txBase, n.tokenSent = s, nil
	}
	// Multiple-Token filtering: during the filter window only the
	// superseding token survives (paper: "keep only one OrderingToken
	// alive according to some rule").
	if n.now() < n.filterUntil {
		if n.bestToken != nil && !tok.Supersedes(n.bestToken) {
			n.countTokenDestroy()
			return
		}
		n.bestToken = tok.Clone()
	}
	if n.wq == nil || !n.view.IsTop {
		// Not a top-ring node (e.g. received mid-reconfiguration):
		// pass the token along unmodified so it finds the ring.
		n.held = tok
		n.forwardHeldToken()
		return
	}

	n.holding = true
	n.held = tok
	n.lastToken = n.now()
	n.tokenSeen = true

	// Everything the arriving token has assigned is replicated at the
	// previous holders: safe to deliver.
	if tok.NextGlobalSeq > n.safeHorizon {
		n.safeHorizon = tok.NextGlobalSeq
	}

	// Assign global numbers to this node's own ready-to-be-ordered
	// source messages (MinLocalSeqNo..MaxLocalSeqNo in paper terms).
	hw := tok.Table.MaxAssignedLocal(n.id)
	cum := n.wq.ForSource(n.id).CumReceived()
	if cum > hw {
		if _, err := tok.Assign(n.id, n.id, hw+1, cum); err != nil {
			// A conflicting assignment can only follow an unresolved
			// multi-token divergence; drop this token.
			n.holding = false
			n.held = nil
			n.countTokenDestroy()
			return
		}
	}
	// Bound the token's wire size: CompactAbove is a hard cap on the
	// circulating table. Preferably drop only entries older than the
	// CompactKeep history window; before the global sequence has opened
	// that window (NextGlobalSeq ≤ CompactKeep) the seed let the table
	// grow without bound, so additionally cut to the newest CompactAbove
	// entries regardless. Everything dropped has circulated the full
	// ring at least once (CompactAbove spans many rotations), and the
	// per-source high-water marks keep duplicate-assignment detection
	// alive for compacted history.
	if above := n.e.Cfg.CompactAbove; above > 0 && tok.Table.Len() > above {
		var horizon seq.GlobalSeq
		if uint64(tok.NextGlobalSeq) > n.e.Cfg.CompactKeep {
			horizon = tok.NextGlobalSeq - seq.GlobalSeq(n.e.Cfg.CompactKeep)
		}
		// Cut to ¾·CompactAbove, not CompactAbove exactly: the slack is
		// hysteresis, so a rotation adds many entries before the table
		// crosses the cap again instead of re-compacting on every hop.
		// Never cut below two rotations' worth of entries, though: each
		// holder adds at most one entry per visit, and an entry must
		// survive one full circulation for every node to absorb it —
		// a CompactAbove smaller than the top ring would otherwise drop
		// assignments some nodes have not seen, stalling their delivery
		// forever.
		keep := above - above/4
		if top := n.e.H.TopRing(); top != nil {
			if floor := 2 * len(top.Nodes()); keep < floor {
				keep = floor
			}
		}
		if h := tok.Table.HorizonForSize(keep); h > horizon {
			horizon = h
		}
		if horizon > 0 {
			tok.Table.Compact(horizon)
		}
	}

	// Keep the two most recent token versions (Old/NewOrderingToken)
	// and fold the assignments into the node's cumulative table.
	n.oldToken = n.newToken
	n.newToken = tok.Clone()
	if n.assign != nil {
		n.assign.Absorb(tok.Table)
	}
	n.stampEpoch, n.stampHops, n.stampSet = tok.Epoch, tok.Hops, true

	// Order opportunistically before the next τ tick (optimization
	// over the paper's purely periodic Order-Assignment).
	if n.e.Cfg.OpportunisticAssign {
		n.OrderAssign()
	}

	// Forward after the (small) holding time — stretched exponentially
	// on an idle ring when TokenIdleBackoff is enabled, so a quiet
	// group's token does not spin the CPU and the sockets at full rate.
	// Nothing is assigned to a held token: the holder assigns its own
	// messages only on arrival (above), and the Order-Assignment passes
	// between arrivals (τ ticks, or the host's step under StartLocal)
	// only stamp already-assigned messages from WQ into MQ. A holder's
	// streak therefore resets only when the token's NextGlobalSeq, after
	// this arrival's own assignment, differs from the one it saw on its
	// previous visit — some holder assigned since. A message submitted
	// during a stretched hold waits the hold out and gets its global
	// number when the token next reaches its top-ring node: the "one
	// stretched rotation" wake-up cost protocolConfig states.
	hold := tokenHold
	if max := n.e.Cfg.TokenIdleBackoff; max > 0 && n.held != nil {
		if next := n.held.NextGlobalSeq; next != n.idleNext {
			n.idleNext, n.idleStreak = next, 0
		} else if hold < max {
			if n.idleStreak < 63 {
				n.idleStreak++
			}
			if hold <= 0 {
				hold = sim.Millisecond
			}
			for i := 0; i < n.idleStreak && hold < max; i++ {
				hold *= 2
			}
			if hold > max {
				hold = max
			}
		}
	}
	n.e.Scheduler().After(hold, func() { n.forwardHeldToken() })
}

// ackToken acknowledges a token (or regeneration) transfer. The token
// arrives from the same neighbor that forwards WQ data to us, so any
// pending acknowledgements owed to it piggyback here — on a token-active
// ring the steady state needs no standalone Acks.
func (n *NE) ackToken(to seq.NodeID, epoch, hops uint64, next seq.GlobalSeq) {
	n.e.Net.Send(n.id, to, &msg.TokenAck{From: n.id, Epoch: epoch, Hops: hops, Next: next, Cum: n.takePendingAck(to)})
}

// swallowsToken reports whether an arriving token of this (epoch, hops)
// dies here without further processing — which its header alone decides.
// Hops strictly increases within an epoch, so anything not strictly newer
// than the last token processed is a courier retransmit or a stale copy.
func (n *NE) swallowsToken(epoch, hops uint64) bool {
	return n.stampSet && (epoch < n.stampEpoch || epoch == n.stampEpoch && hops <= n.stampHops)
}

// forwardHeldToken sends the held token to the current ring successor.
func (n *NE) forwardHeldToken() {
	if n.failed || n.held == nil {
		return
	}
	tok := n.held
	nx := n.view.Next
	if nx == seq.None || nx == n.id {
		// Singleton ring: re-visit self after a τ so ordering continues.
		n.holding = false
		if tok.NextGlobalSeq > n.safeHorizon {
			n.safeHorizon = tok.NextGlobalSeq
		}
		self := tok.Clone()
		self.Hops++
		n.held = nil
		n.stampSet = false // allow re-processing our own token
		n.e.Scheduler().After(n.e.Cfg.Tau, func() { n.handleToken(n.id, self) })
		return
	}
	n.holding = false
	send := tok.Clone()
	send.Hops++
	n.tokenExpect = ackExpect{active: true, epoch: send.Epoch, hops: send.Hops, next: send.NextGlobalSeq}
	n.countTokenForward()
	n.tokenCourier.Deliver(nx, n.tokenMsg(nx, send))
}

// onTokenCourierFail retries token forwarding after topology repair (the
// successor may have changed).
func (n *NE) onTokenCourierFail() {
	if n.failed || n.held == nil {
		return
	}
	n.tokenExpect = ackExpect{}
	// Whether the successor got the last copy is unknown: send the next
	// one whole.
	n.txBase = nil
	n.e.Scheduler().After(n.e.Cfg.Hop.RTO, func() {
		if n.held != nil && !n.failed {
			n.forwardHeldToken()
		}
	})
}

func (n *NE) handleTokenAck(from seq.NodeID, a *msg.TokenAck) {
	if a.Cum != nil {
		n.applyAck(from, a.Cum)
	}
	// Hops is part of the match: it strictly increases per forward, so a
	// delayed duplicate ack from an earlier rotation (same Epoch and —
	// on a quiescent ring — same Next) can never falsely confirm the
	// forward currently in flight.
	if n.tokenExpect.active && a.Epoch == n.tokenExpect.epoch &&
		a.Hops == n.tokenExpect.hops && a.Next == n.tokenExpect.next {
		n.tokenCourier.Confirm()
		n.e.Tel.TokenRTO.Set(int64(n.tokenCourier.RTO()))
		n.tokenExpect = ackExpect{}
		if n.tokenSent != nil {
			n.txBase, n.tokenSent = n.tokenSent, nil
		}
		// The forwarded token now exists at two nodes: its assignments
		// are stable and may be delivered (stability gate).
		if a.Next > n.safeHorizon {
			n.safeHorizon = a.Next
		}
		// The held copy exists for re-forwarding the unacked transfer.
		// If the token has meanwhile circled back and is being held for
		// the NEXT rotation (ack outrun by the ring — real networks
		// only), that newer copy must survive the old rotation's ack.
		if !n.holding {
			n.held = nil
		}
		n.lastToken = n.now()
		if n.e.Cfg.OpportunisticAssign {
			n.OrderAssign()
		}
		return
	}
	if n.regenExpect.active && a.Epoch == n.regenExpect.epoch &&
		a.Hops == n.regenExpect.hops && a.Next == n.regenExpect.next {
		n.regenCourier.Confirm()
		n.regenExpect = ackExpect{}
	}
}

// OrderAssign is the Order-Assignment algorithm (paper §4.2.1): match
// ready-to-be-ordered WQ messages against the stored ordering tokens,
// stamp global sequence numbers, and copy them to MQ. The pass is also
// where time-driven repair happens: front-gap and WQ-stall Nacks and
// their give-up rounds. Engine.Start runs it every τ; an engine started
// with StartLocal leaves the clock to its host.
func (n *NE) OrderAssign() {
	if n.failed || n.wq == nil {
		return
	}
	for _, src := range n.wq.Sources() {
		n.orderAssignSource(src)
	}
	n.compactAssign()
	n.maybeNackFront()
	n.deliverLoop()
}

// compactAssign drops the cumulative assignments no reader can still ask
// about, so the table holds what is in flight rather than the retained
// window. Every reader asks either about a global above the MQ front
// (handleSkip, maybeNackFront, the repair branch of handleWQData,
// advanceWQOrdered's slot check) or about a local above its source
// queue's ordered mark (orderAssignSource, giveUpSource,
// advanceWQOrdered). Globals are assigned to a source's locals in
// increasing order, so the horizon
//
//	H = min(front, for each source queue: global(next unordered local) − 1)
//
// keeps every entry either kind of reader needs. A source whose next
// local has no entry in the table adds no bound: there is no entry of
// that local to keep. What compaction drops for such a source, or for
// one with no queue yet, is remembered in assignFloor, so a body of
// those locals that arrives later is still consumed.
func (n *NE) compactAssign() {
	if n.e.Cfg.CompactAbove <= 0 || n.assign == nil || n.assign.Len() == 0 {
		return
	}
	h := n.mq.Front()
	for _, src := range n.wq.Sources() {
		l := n.wq.ForSource(src).MaxOrdered() + 1
		if g, _, ok := n.assign.GlobalFor(src, l); ok && g <= h {
			h = g - 1
		}
	}
	n.assign.CompactFunc(h, n.noteCompacted)
}

// noteCompacted raises src's compacted-local mark: every local of src at
// or below l was assigned a global at or below some earlier delivery
// front (a source's globals grow with its locals), so it is delivered.
func (n *NE) noteCompacted(src seq.NodeID, l seq.LocalSeq) {
	if n.assignFloor == nil {
		n.assignFloor = make(map[seq.NodeID]seq.LocalSeq)
	}
	if l > n.assignFloor[src] {
		n.assignFloor[src] = l
	}
}

// maybeNackFront is the MQ-level repair backstop for deployments with
// broadcast repair enabled: when the delivery front is blocked by a
// body-missing slot for more than NackTimeout — regardless of whether
// any source queue can name its assignment (reconfiguration races can
// leave the front gap with no WQ-side stall to trigger maybeNack) — ask
// the ring for the ordered bodies directly. Any member that delivered
// them retains them for RetainExtra slots.
func (n *NE) maybeNackFront() {
	if n.e.Cfg.NackBroadcastAfter <= 0 {
		return // seed behavior: WQ-stall-driven repair only
	}
	if n.deliveryHold {
		// Parked (lame ring): the front is held on purpose, and a
		// really-lost verdict issued here could contradict a delivery the
		// quorum side makes. Repair restarts when the hold clears.
		return
	}
	g := n.mq.Front() + 1
	if g > n.mq.Rear() {
		n.frontStall = 0
		return
	}
	if sl := n.mq.Get(g); sl == nil || sl.Received || sl.Delivered {
		n.frontStall = 0
		return
	}
	now := n.now()
	if n.frontStall == 0 || n.frontG != g {
		// Fresh stall, or the front advanced onto a DIFFERENT gap: the
		// fruitless-round count belongs to the old global and must not
		// carry over (a stale count could trigger the give-up on a gap
		// no Nack ever requested).
		n.frontG = g
		n.frontStall = now
		n.frontRounds = 0
		return
	}
	if now-n.frontStall < n.e.Cfg.NackTimeout {
		return
	}
	n.frontStall = now
	n.frontRounds++
	// Really-lost rule, MQ edition: after enough fruitless broadcast
	// rounds, if the blocking global was assigned to a source that is no
	// longer in the hierarchy (evicted mid-replication), its body died
	// with that source — no live member answered — and every stalled
	// member marks the slot lost alike. Sweep the contiguous run of such
	// slots so multi-hole losses clear in one pass. After 4× the
	// patience, give up even when the assignment entry itself is
	// unresolvable (it can die with its source's last token copy).
	// When the assignment IS resolvable to a source still in the
	// hierarchy, never give up, however many rounds pass: a live source
	// always retains its own message, so the repair is merely delayed —
	// congestion can hold answers back for many round-trips, and marking
	// a live message lost permanently desynchronizes this member's
	// delivery count from the group's.
	if gr := n.e.Cfg.NackGiveUpRounds; gr > 0 && n.frontRounds >= gr {
		hard := n.frontRounds >= 4*gr
		cleared := false
		for ; g <= n.mq.Rear(); g++ {
			if sl := n.mq.Get(g); sl == nil || sl.Received || sl.Delivered {
				break
			}
			src, lcl, ok := n.sourceForGlobal(g)
			if !((hard && !ok) || (ok && n.e.H.Node(src) == nil)) {
				break
			}
			if n.mq.InsertLost(g) != nil {
				break
			}
			n.noteLost(g, src, lcl, "front-gap")
			cleared = true
		}
		if cleared {
			n.frontStall = 0
			n.frontRounds = 0
			n.deliverLoop()
			return
		}
	}
	n.sendRepairNack(g, n.frontRounds)
}

// sendRepairNack requests the window of bodies starting at g from the
// ring predecessor, escalating to every ring member once the stall has
// survived NackBroadcastAfter rounds (any member that delivered a body
// retains it for RetainExtra slots).
func (n *NE) sendRepairNack(g seq.GlobalSeq, rounds int) {
	hi := g
	if w := n.e.Cfg.NackWindow; w > 1 {
		hi = g + seq.GlobalSeq(w-1)
	}
	nk := &msg.Nack{Group: n.e.Group, From: n.id, Range: seq.Range{Min: uint64(g), Max: uint64(hi)}}
	if tr := n.e.Tel.Trace; tr.Active() {
		tr.Annotate(telemetry.StageNackTX, uint32(n.e.Group), uint64(g), 0, fmt.Sprintf("range %d-%d round %d", g, hi, rounds))
	}
	if ba := n.e.Cfg.NackBroadcastAfter; ba > 0 && rounds >= ba {
		if r := n.e.H.RingOf(n.id); r != nil {
			for _, p := range r.Nodes() {
				if p != n.id {
					n.ctrNacks++
					n.e.Tel.NacksBroadcast.Inc()
					n.e.EnsureLink(n.id, p)
					n.e.Net.Send(n.id, p, nk)
				}
			}
			return
		}
	}
	prev := n.view.Previous
	if prev == seq.None || prev == n.id {
		return
	}
	n.ctrNacks++
	n.e.Tel.NacksRanged.Inc()
	n.e.Net.Send(n.id, prev, nk)
}

func (n *NE) orderAssignSource(src seq.NodeID) {
	if n.wq == nil || n.assign == nil {
		return
	}
	n.forwardWQ(src)
	sq := n.wq.ForSource(src)
	// A queue that has never ordered a real body is still ALIGNING: a
	// mid-stream joiner’s missing prefix sits below its MQ baseline, so
	// fast-forwarding past locals that were assigned somewhere but are
	// unknowable here — and that it holds no body for — is what engages
	// its ordering with the live stream. Alignment is resumable across
	// calls (it may pause on an in-flight body) but ends permanently at
	// the first real ordering: on an engaged queue an unknown assignment
	// or missing body must STALL instead — skipping would discard state
	// the protocol still repairs (the origin may be retransmitting
	// exactly those bodies, and a skipped local’s global slot becomes an
	// unrepairable hole). Stalled gaps heal through sender
	// retransmission, maybeNack, and the front-gap Nack backstop.
	aligning := !n.wqAligned[src]
	progressed := false
	for {
		l := sq.MaxOrdered() + 1
		g, ord, ok := n.lookupAssignment(src, l)
		if !ok && l <= n.assignFloor[src] {
			// Delivered, and its assignment compacted away since (see
			// noteCompacted): consume it as a stamped duplicate would be.
			if sq.Get(l) == nil {
				sq.SkipTo(l)
				continue
			}
			sq.Drop(l, l)
			n.wqAligned[src] = true
			delete(n.stallSince, src)
			delete(n.stallRounds, src)
			progressed = true
			continue
		}
		if !ok {
			if aligning && l <= n.assignedHighWater(src) && sq.Get(l) == nil {
				sq.SkipTo(l)
				continue
			}
			delete(n.stallSince, src)
			delete(n.stallRounds, src)
			break
		}
		// Stability gate (refinement over the paper): a holder's own
		// fresh assignments wait until the forwarded token is acknowledged
		// by the next node, so no global sequence number is delivered
		// while only one node knows it — this closes the duplicate-
		// assignment window after a holder crash.
		if g >= n.safeHorizon {
			break
		}
		body := sq.Get(l)
		if body == nil {
			n.maybeNack(src, g)
			break
		}
		stamped := body.Clone()
		stamped.OrderingNode = ord
		stamped.GlobalSeq = g
		if _, err := n.mq.Insert(stamped); err != nil {
			break // MQ full: resume next tick after release
		}
		n.e.Tel.Trace.Span(telemetry.StageStamp, uint32(n.e.Group), uint32(src), uint64(l), uint64(g), 0)
		sq.Drop(l, l)
		n.wqAligned[src] = true
		delete(n.stallSince, src)
		delete(n.stallRounds, src)
		progressed = true
	}
	if progressed {
		n.deliverLoop()
	}
}

// assignedHighWater returns the highest local sequence number of src
// known (across the cumulative table and both stored tokens) to have
// been assigned a global number — whether or not the assignment entry
// itself is still available.
func (n *NE) assignedHighWater(src seq.NodeID) seq.LocalSeq {
	var hw seq.LocalSeq
	if n.assign != nil {
		hw = n.assign.MaxAssignedLocal(src)
	}
	if n.newToken != nil {
		if h := n.newToken.Table.MaxAssignedLocal(src); h > hw {
			hw = h
		}
	}
	if n.oldToken != nil {
		if h := n.oldToken.Table.MaxAssignedLocal(src); h > hw {
			hw = h
		}
	}
	return hw
}

// sourceForGlobal resolves the source of an assigned global number from
// any table this node holds (repair paths only).
func (n *NE) sourceForGlobal(g seq.GlobalSeq) (seq.NodeID, seq.LocalSeq, bool) {
	if n.assign != nil {
		if src, l, ok := n.assign.SourceForGlobal(g); ok {
			return src, l, ok
		}
	}
	if n.newToken != nil {
		if src, l, ok := n.newToken.Table.SourceForGlobal(g); ok {
			return src, l, ok
		}
	}
	if n.oldToken != nil {
		if src, l, ok := n.oldToken.Table.SourceForGlobal(g); ok {
			return src, l, ok
		}
	}
	return seq.None, 0, false
}

// lookupAssignment consults the cumulative assignment table first, then
// the two stored token versions (New/OldOrderingToken) as the paper
// prescribes.
func (n *NE) lookupAssignment(src seq.NodeID, l seq.LocalSeq) (seq.GlobalSeq, seq.NodeID, bool) {
	if n.assign != nil {
		if g, ord, ok := n.assign.GlobalFor(src, l); ok {
			return g, ord, true
		}
	}
	if n.newToken != nil {
		if g, ord, ok := n.newToken.Table.GlobalFor(src, l); ok {
			return g, ord, true
		}
	}
	if n.oldToken != nil {
		if g, ord, ok := n.oldToken.Table.GlobalFor(src, l); ok {
			return g, ord, true
		}
	}
	return 0, seq.None, false
}

// maybeNack requests a missing body from the previous ring node once the
// stall exceeds NackTimeout. The body is known to be ordered (assignment
// exists) so the previous node can serve it from its MQ. Persistent
// stalls escalate: after NackBroadcastAfter fruitless rounds the request
// goes to every ring member (reconfiguration may have re-routed the
// streams past the predecessor), and after NackGiveUpRounds rounds with
// the source gone from the hierarchy the really-lost rule applies — the
// body died with its source and every stalled member skips it alike.
func (n *NE) maybeNack(src seq.NodeID, g seq.GlobalSeq) {
	if n.deliveryHold {
		return // parked: see maybeNackFront
	}
	since, ok := n.stallSince[src]
	if !ok {
		n.stallSince[src] = n.now()
		n.stallRounds[src] = 0
		return
	}
	if n.now()-since < n.e.Cfg.NackTimeout {
		return
	}
	n.stallSince[src] = n.now()
	rounds := n.stallRounds[src] + 1
	n.stallRounds[src] = rounds
	if gr := n.e.Cfg.NackGiveUpRounds; gr > 0 && rounds >= gr && n.e.H.Node(src) == nil {
		n.giveUpSource(src)
		return
	}
	n.sendRepairNack(g, rounds)
}

// giveUpSource applies the really-lost rule to every known-assigned,
// still-missing body of a source that has been removed from the
// hierarchy: repeated broadcast Nacks went unanswered, so no live member
// retains the body and nobody can ever deliver it — marking the slots
// lost (identically at every stalled member) is the only way the
// delivery front moves again.
func (n *NE) giveUpSource(src seq.NodeID) {
	sq := n.wq.ForSource(src)
	for {
		l := sq.MaxOrdered() + 1
		g, _, ok := n.lookupAssignment(src, l)
		if !ok {
			break
		}
		if sq.Get(l) != nil {
			break // body present after all; normal ordering resumes
		}
		if err := n.mq.InsertLost(g); err != nil {
			break
		}
		n.noteLost(g, src, l, "give-up")
		sq.SkipTo(l)
	}
	delete(n.stallSince, src)
	delete(n.stallRounds, src)
	n.deliverLoop()
}

// --- Token-Regeneration (paper §4.2.1) ---

// onTokenLoss handles the membership protocol's Token-Loss signal. If
// Message-Ordering "runs well" here (recent token activity) the signal is
// ignored; otherwise a Token-Regeneration message encapsulating this
// node's NewOrderingToken starts traversing the ring.
func (n *NE) onTokenLoss() {
	if n.failed || !n.view.IsTop {
		return
	}
	if n.OrdersWell() {
		return
	}
	tok := n.bestLocalToken()
	nx := n.view.Next
	if nx == seq.None || nx == n.id {
		// Alone on the ring: restart immediately.
		restart := tok.Clone()
		restart.Epoch++
		n.countRegen()
		n.e.Tel.Emit("token-regen", uint64(restart.Epoch), "singleton-restart")
		n.handleToken(n.id, restart)
		return
	}
	n.countRegen()
	n.e.Tel.Emit("token-regen", uint64(tok.Epoch), "traversal")
	rg := &msg.TokenRegen{Origin: n.id, From: n.id, Token: tok.Clone()}
	n.regenExpect = ackExpect{active: true, epoch: rg.Token.Epoch, hops: rg.Token.Hops, next: rg.Token.NextGlobalSeq}
	n.regenCourier.Deliver(nx, rg)
}

// OrdersWell reports whether Message-Ordering here has seen token
// activity recently (or holds the token right now) — i.e. the ring is
// token-alive from this node's vantage point. The wire daemon's
// convergence gate uses it too: a node must not declare itself done on a
// token-dead ring, where pending repair could still change what it
// delivers.
func (n *NE) OrdersWell() bool {
	if n.failed {
		return false
	}
	if n.holding || n.held != nil {
		return true
	}
	return n.tokenSeen && n.now()-n.lastToken < n.e.Cfg.TokenLossThreshold
}

func (n *NE) bestLocalToken() *seq.Token {
	if n.newToken != nil {
		return n.newToken
	}
	if n.oldToken != nil {
		return n.oldToken
	}
	return seq.NewToken(n.e.Group)
}

// handleTokenRegen implements the traversal rules: a node where ordering
// runs well destroys the message; the origin restarts with the best token
// seen (epoch bumped); otherwise the message is re-encapsulated with a
// newer local token if available and forwarded.
//
// Deviation from the paper: the paper restarts
// at the first node whose NewOrderingToken is not older than the
// message's; we let the message complete the full circle back to its
// origin so it collects the maximum NextGlobalSeqNo among survivors,
// which prevents duplicate global sequence numbers when surviving nodes
// hold tokens of different ages.
func (n *NE) handleTokenRegen(from seq.NodeID, rg *msg.TokenRegen) {
	if n.failed || rg.Token == nil {
		return
	}
	if from != n.id {
		n.ackToken(from, rg.Token.Epoch, rg.Token.Hops, rg.Token.NextGlobalSeq)
	}
	// Duplicate suppression for courier retransmits — time-bounded to
	// the retransmission scale: a re-raised traversal (a later repair or
	// eviction signals again while ordering stays silent) is
	// legitimately identical in (origin, next, epoch) and must traverse,
	// or token recovery deadlocks the moment one traversal is abandoned
	// on a removed member.
	stamp := regenStamp{origin: rg.Origin, next: rg.Token.NextGlobalSeq, epoch: rg.Token.Epoch, set: true}
	if n.lastRegen == stamp && n.now()-n.lastRegenAt < 2*n.e.Cfg.Hop.RTO {
		return
	}
	n.lastRegen = stamp
	n.lastRegenAt = n.now()

	if n.OrdersWell() {
		n.countTokenDestroy()
		return
	}
	if rg.Origin == n.id {
		// Full circle: restart Message-Ordering here with the best
		// token collected, at a fresh epoch.
		restart := rg.Token.Clone()
		restart.Epoch++
		restart.Hops = 0
		n.stampSet = false
		n.handleToken(n.id, restart)
		return
	}
	fwd := &msg.TokenRegen{Origin: rg.Origin, From: n.id, Token: rg.Token}
	if best := n.bestLocalToken(); best.NextGlobalSeq > rg.Token.NextGlobalSeq {
		fwd.Token = best.Clone()
	}
	nx := n.view.Next
	if nx == seq.None || nx == n.id {
		// Ring collapsed to this node: restart here.
		restart := fwd.Token.Clone()
		restart.Epoch++
		restart.Hops = 0
		n.stampSet = false
		n.handleToken(n.id, restart)
		return
	}
	n.regenExpect = ackExpect{active: true, epoch: fwd.Token.Epoch, hops: fwd.Token.Hops, next: fwd.Token.NextGlobalSeq}
	n.regenCourier.Deliver(nx, fwd)
}

// onMultipleToken arms the Multiple-Token filter after a ring merge.
func (n *NE) onMultipleToken() {
	if n.failed {
		return
	}
	n.filterUntil = n.now() + filterWindow
	if n.newToken != nil {
		n.bestToken = n.newToken.Clone()
	} else {
		n.bestToken = nil
	}
}
