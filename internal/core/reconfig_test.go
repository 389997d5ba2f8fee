package core

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/topology"
)

// wireLikeConfig mirrors the real-socket deployment: unbounded per-hop
// retries and a tight token-compaction cap, so a dead neighbor stalls
// couriers forever unless reconfiguration intervenes — exactly the
// scenario NE.DropPeer exists for. Its rigs run through Engine.Start, so
// their nodes run Order-Assignment on a fixed τ ticker where the wire's
// node is stepped by its daemon.
func wireLikeConfig() Config {
	cfg := DefaultConfig()
	cfg.Hop.MaxRetries = 0
	cfg.Wireless.MaxRetries = 0
	cfg.CompactAbove = 16
	cfg.CompactKeep = 32
	cfg.RetainExtra = 2048
	cfg.NackWindow = 64
	cfg.NackBroadcastAfter = 3
	cfg.NackGiveUpRounds = 12
	return cfg
}

// flatRing builds an engine over a bare top ring of the given members
// (plus any extra ringless BR nodes), with a per-node delivery recorder.
func flatRing(t *testing.T, cfg Config, ring []seq.NodeID, extra ...seq.NodeID) (*Engine, *sim.Scheduler, map[seq.NodeID][]*msg.Data) {
	t.Helper()
	sched := sim.NewScheduler()
	sched.MaxEvents = 20_000_000
	net := netsim.New(sched, sim.NewRNG(7))
	h := topology.New()
	for _, id := range ring {
		if _, err := h.AddNode(id, topology.TierBR); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range extra {
		if _, err := h.AddNode(id, topology.TierBR); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.NewRing(topology.TierBR, ring...); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(1, cfg, net, h)
	got := make(map[seq.NodeID][]*msg.Data)
	e.OnDeliver = func(at seq.NodeID, d *msg.Data) { got[at] = append(got[at], d) }
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	return e, sched, got
}

// TestDropPeerTokenRecovery: the token transfer is in flight to a
// crashed successor under unbounded retries. Ring repair alone leaves
// the courier retransmitting to the corpse; DropPeer must cancel it and
// release the held copy WITHOUT re-forwarding (the transfer may have
// landed — a same-epoch twin would cause divergent assignments), so the
// Token-Loss signal regenerates the token at a bumped epoch and
// ordering resumes.
func TestDropPeerTokenRecovery(t *testing.T) {
	e, sched, _ := flatRing(t, wireLikeConfig(), []seq.NodeID{1, 2, 3})
	e.FailNode(2)
	if _, err := sched.Run(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	n1 := e.NE(1)
	if n1.held == nil || !n1.tokenCourier.Busy() || n1.tokenCourier.To() != 2 {
		t.Fatalf("precondition: token transfer not stuck on the corpse (held=%v busy=%v to=%v)",
			n1.held != nil, n1.tokenCourier.Busy(), n1.tokenCourier.To())
	}
	if e.NE(3).tokenSeen {
		t.Fatal("precondition: node 3 saw the token before repair")
	}
	epoch0 := n1.newToken.Epoch

	// Membership repair: splice 2 out, refresh survivors, drop the peer.
	if _, _, err := e.H.RemoveFromRing(2); err != nil {
		t.Fatal(err)
	}
	e.OnTopologyChanged(1, 3)
	e.NE(1).DropPeer(2)
	e.NE(3).DropPeer(2)
	if n1.held != nil || n1.tokenCourier.Busy() {
		t.Fatal("DropPeer left the canceled transfer armed")
	}
	// The membership plane's Token-Loss signal (its repair hook)
	// triggers regeneration once ordering has been silent long enough.
	sched.At(sched.Now()+600*sim.Millisecond, func() { e.OnTokenLoss(1) })
	if _, err := sched.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if !e.NE(3).tokenSeen {
		t.Fatal("token never reached node 3 after regeneration")
	}
	if n1.newToken == nil || n1.newToken.Epoch <= epoch0 {
		t.Fatalf("regenerated token did not bump the epoch (was %d, now %v)", epoch0, n1.newToken)
	}
	if e.TokenRounds(1) < 2 {
		t.Fatalf("token not circulating after repair: rounds=%d", e.TokenRounds(1))
	}
}

// TestJoinMidStreamFastForward: a ringless node splices into a live top
// ring after compaction has discarded the stream's early assignments.
// JumpTo gives it the MQ baseline; the ordering loop must fast-forward
// each source queue past compacted-away locals; it must then deliver
// exactly the suffix of the total order a steady member delivers.
func TestJoinMidStreamFastForward(t *testing.T) {
	e, sched, got := flatRing(t, wireLikeConfig(), []seq.NodeID{1, 2}, 3)

	// Phase 1: enough traffic that CompactAbove=16 has discarded the
	// early assignments from the circulating token.
	submitEvery(t, e, sched, 1, 60, sim.Millisecond, sim.Millisecond)
	submitEvery(t, e, sched, 2, 60, sim.Millisecond, sim.Millisecond)
	if _, err := sched.Run(500 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	n1 := e.NE(1)
	if n1.newToken == nil {
		t.Fatal("steady member holds no token version")
	}
	// Sanity: early assignments must be compacted for the test to bite.
	if _, _, ok := n1.newToken.Table.GlobalFor(1, 1); ok {
		t.Fatal("token still carries the first assignment; raise traffic or lower CompactAbove")
	}
	if len(got[1]) != 120 || len(got[2]) != 120 {
		t.Fatalf("steady members delivered %d/%d, want 120 each", len(got[1]), len(got[2]))
	}

	// Phase 2: splice node 3 in at the current baseline.
	baseline := n1.mq.Front()
	e.NE(3).JumpTo(baseline)
	if err := e.H.InsertIntoRing(3, 2); err != nil {
		t.Fatal(err)
	}
	e.OnTopologyChanged(1, 2, 3)
	submitEvery(t, e, sched, 1, 40, 510*sim.Millisecond, sim.Millisecond)
	submitEvery(t, e, sched, 2, 40, 510*sim.Millisecond, sim.Millisecond)
	sched.At(520*sim.Millisecond, func() {
		if _, err := e.Submit(3, []byte("j")); err != nil {
			t.Errorf("joiner Submit: %v", err)
		}
	})
	if _, err := sched.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}

	if len(got[1]) != 201 || len(got[2]) != 201 {
		t.Fatalf("steady members delivered %d/%d, want 201 each", len(got[1]), len(got[2]))
	}
	if len(got[3]) == 0 {
		t.Fatal("joiner delivered nothing")
	}
	// The joiner's stream must be exactly the steady members' suffix
	// starting right after its baseline.
	ref := got[1]
	start := -1
	for i, d := range ref {
		if d.GlobalSeq == got[3][0].GlobalSeq {
			start = i
			break
		}
	}
	if start < 0 {
		t.Fatalf("joiner's first delivery g=%d not in the reference stream", got[3][0].GlobalSeq)
	}
	if ref[start].GlobalSeq != baseline+1 {
		t.Fatalf("joiner's first delivery g=%d, want baseline+1=%d", ref[start].GlobalSeq, baseline+1)
	}
	if len(ref)-start != len(got[3]) {
		t.Fatalf("joiner delivered %d, reference suffix has %d", len(got[3]), len(ref)-start)
	}
	for i, d := range got[3] {
		r := ref[start+i]
		if d.GlobalSeq != r.GlobalSeq || d.SourceNode != r.SourceNode || d.LocalSeq != r.LocalSeq {
			t.Fatalf("suffix diverged at %d: joiner (%d,%v,%d) vs reference (%d,%v,%d)",
				i, d.GlobalSeq, d.SourceNode, d.LocalSeq, r.GlobalSeq, r.SourceNode, r.LocalSeq)
		}
	}
	// The joiner's own submission must have been ordered and delivered
	// everywhere.
	found := false
	for _, d := range got[1] {
		if d.SourceNode == 3 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("joiner's own message never delivered at steady members")
	}
}

// TestJumpToOnlyVirgin: JumpTo must not disturb a node that has already
// received ordered traffic.
func TestJumpToOnlyVirgin(t *testing.T) {
	e, sched, got := flatRing(t, wireLikeConfig(), []seq.NodeID{1, 2})
	for i := 0; i < 10; i++ {
		if _, err := e.Submit(1, []byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sched.Run(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(got[2]) != 10 {
		t.Fatalf("delivered %d, want 10", len(got[2]))
	}
	front := e.NE(2).mq.Front()
	e.NE(2).JumpTo(front + 1000)
	if e.NE(2).mq.Front() != front {
		t.Fatal("JumpTo moved a non-virgin MQ")
	}
}

// submitEvery schedules n submissions at src, one per gap starting at start.
func submitEvery(t *testing.T, e *Engine, sched *sim.Scheduler, src seq.NodeID, n int, start, gap sim.Time) {
	t.Helper()
	for i := 0; i < n; i++ {
		sched.At(start+sim.Time(i)*gap, func() {
			if _, err := e.Submit(src, []byte("m")); err != nil {
				t.Errorf("Submit(%v): %v", src, err)
			}
		})
	}
}

func run(t *testing.T, sched *sim.Scheduler, d sim.Time) {
	t.Helper()
	if _, err := sched.Run(sched.Now() + d); err != nil {
		t.Fatal(err)
	}
}

// TestDeliveryHoldParksAndReleases: a held node keeps accepting bodies —
// and the lossy hop feeding it keeps repairing them — but delivers
// nothing and issues no really-lost verdict, even for a front gap that
// earns one the moment the hold clears; releasing the hold delivers the
// accumulated run at once, in the order every other member delivered.
func TestDeliveryHoldParksAndReleases(t *testing.T) {
	cfg := wireLikeConfig()
	cfg.NackGiveUpRounds = 2
	e, sched, got := flatRing(t, cfg, []seq.NodeID{1, 2, 3})
	e.Net.(*netsim.Network).ConnectDirected(2, 3, netsim.LinkParams{Latency: 2 * sim.Millisecond, Loss: 0.4})
	var lost []seq.GlobalSeq
	e.OnLost = func(at seq.NodeID, g seq.GlobalSeq, _ seq.NodeID, _ seq.LocalSeq, _ string) {
		if at == 3 {
			lost = append(lost, g)
		}
	}
	n3 := e.NE(3)
	n3.SetDeliveryHold(true)

	submitEvery(t, e, sched, 1, 20, sim.Millisecond, sim.Millisecond)
	run(t, sched, sim.Second)
	if len(got[1]) != 20 || len(got[2]) != 20 {
		t.Fatalf("unheld members delivered %d/%d, want 20 each", len(got[1]), len(got[2]))
	}
	if len(got[3]) != 0 || n3.mq.Front() != 0 {
		t.Fatalf("held node delivered %d (front %d)", len(got[3]), n3.mq.Front())
	}
	for g := seq.GlobalSeq(1); g <= 20; g++ {
		if !n3.mq.Has(g) {
			t.Fatalf("held node did not accept body g=%d (rear %d)", g, n3.mq.Rear())
		}
	}
	if e.Buffers().Retransmits == 0 {
		t.Fatal("the lossy hop repaired nothing: the test no longer exercises repair under hold")
	}

	n3.SetDeliveryHold(false)
	if len(got[3]) != 20 {
		t.Fatalf("release delivered %d, want the accumulated 20", len(got[3]))
	}
	for i, d := range got[3] {
		r := got[1][i]
		if d.GlobalSeq != seq.GlobalSeq(i+1) || d.SourceNode != r.SourceNode || d.LocalSeq != r.LocalSeq {
			t.Fatalf("released run diverges at %d: (%d,%v,%d) vs reference (%d,%v,%d)",
				i, d.GlobalSeq, d.SourceNode, d.LocalSeq, r.GlobalSeq, r.SourceNode, r.LocalSeq)
		}
	}

	// Held again, a repair answer for g=22 arrives from a source no table
	// names: g=21 is now a front gap whose assignment died with its
	// source, which the really-lost rule clears after 4×NackGiveUpRounds
	// fruitless rounds — unless delivery is held.
	n3.SetDeliveryHold(true)
	n3.Recv(2, &msg.Data{Group: 1, SourceNode: 9, LocalSeq: 2, OrderingNode: 9, GlobalSeq: 22})
	run(t, sched, 2*sim.Second)
	if len(lost) != 0 || len(got[3]) != 20 {
		t.Fatalf("held node issued verdicts %v / delivered %d", lost, len(got[3]))
	}
	n3.SetDeliveryHold(false)
	run(t, sched, sim.Second)
	if len(lost) != 1 || lost[0] != 21 {
		t.Fatalf("after release: verdicts %v, want exactly [21]", lost)
	}
	if len(got[3]) != 21 || got[3][20].GlobalSeq != 22 {
		t.Fatalf("after the verdict: delivered %d, want 21 ending at g=22", len(got[3]))
	}
}

// TestDiscardTokenBelow: a token held for an unacknowledged transfer
// survives a discard at its own epoch and dies — with its courier
// confirmed, so nothing retransmits it — at any higher one.
func TestDiscardTokenBelow(t *testing.T) {
	for _, tc := range []struct {
		name    string
		above   uint64 // discard threshold minus the held token's epoch
		destroy bool
	}{
		{"equal epoch survives", 0, false},
		{"lower epoch dies", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, sched, _ := flatRing(t, wireLikeConfig(), []seq.NodeID{1, 2, 3})
			e.FailNode(2)
			run(t, sched, 100*sim.Millisecond)
			n1 := e.NE(1)
			if n1.held == nil || !n1.tokenCourier.Busy() {
				t.Fatal("precondition: no token transfer stuck on the crashed successor")
			}
			if ep, hops, ok := n1.TokenStamp(); !ok || ep != n1.newToken.Epoch || hops != n1.newToken.Hops {
				t.Fatalf("TokenStamp = (%d, %d, %v), want the stored token's (%d, %d)", ep, hops, ok, n1.newToken.Epoch, n1.newToken.Hops)
			}
			if _, _, ok := e.NE(3).TokenStamp(); ok {
				t.Fatal("node 3 reports a stamp without ever seeing the token")
			}
			destroys := n1.ctrTokenDestroys
			if got := n1.DiscardTokenBelow(n1.held.Epoch + tc.above); got != tc.destroy {
				t.Fatalf("DiscardTokenBelow = %v, want %v", got, tc.destroy)
			}
			if gone := n1.held == nil && !n1.tokenCourier.Busy() && !n1.tokenExpect.active; gone != tc.destroy {
				t.Fatalf("held=%v courierBusy=%v expect=%v, want destroyed=%v",
					n1.held != nil, n1.tokenCourier.Busy(), n1.tokenExpect.active, tc.destroy)
			}
			if counted := n1.ctrTokenDestroys == destroys+1; counted != tc.destroy {
				t.Fatalf("token destroys went %d → %d", destroys, n1.ctrTokenDestroys)
			}
		})
	}
}

// TestReadmit: readmission force-releases a virgin queue to the baseline
// like a fresh join, keeps the front of one that has delivered, and in
// both cases clears a delivery hold and the repair clocks.
func TestReadmit(t *testing.T) {
	e, sched, got := flatRing(t, wireLikeConfig(), []seq.NodeID{1, 2}, 3)
	submitEvery(t, e, sched, 1, 10, sim.Millisecond, sim.Millisecond)
	run(t, sched, 200*sim.Millisecond)
	if len(got[2]) != 10 {
		t.Fatalf("delivered %d, want 10", len(got[2]))
	}
	for _, tc := range []struct {
		name      string
		node      seq.NodeID
		baseline  seq.GlobalSeq
		wantFront seq.GlobalSeq
	}{
		{"virgin queue jumps to the baseline", 3, 50, 50},
		{"virgin queue without a baseline stays put", 3, 0, 50}, // no longer virgin: the row above moved it
		{"delivering queue keeps its front", 2, 1000, 10},
	} {
		n := e.NE(tc.node)
		n.SetDeliveryHold(true)
		n.stallRounds[1], n.frontRounds = 7, 7
		n.Readmit(tc.baseline)
		if n.mq.Front() != tc.wantFront {
			t.Fatalf("%s: front %d, want %d", tc.name, n.mq.Front(), tc.wantFront)
		}
		if n.deliveryHold || len(n.stallRounds) != 0 || n.frontRounds != 0 {
			t.Fatalf("%s: hold=%v stallRounds=%v frontRounds=%d survive readmission",
				tc.name, n.deliveryHold, n.stallRounds, n.frontRounds)
		}
	}
}

// TestRejoinFresh: abandoning the stream position returns exactly the
// range (front, baseline], nothing in it is ever delivered, and delivery
// resumes at baseline+1; at or below the front it discards nothing.
func TestRejoinFresh(t *testing.T) {
	e, sched, got := flatRing(t, wireLikeConfig(), []seq.NodeID{1, 2, 3})
	submitEvery(t, e, sched, 1, 10, sim.Millisecond, sim.Millisecond)
	run(t, sched, 200*sim.Millisecond)
	n3 := e.NE(3)
	if len(got[3]) != 10 || n3.mq.Front() != 10 {
		t.Fatalf("precondition: node 3 delivered %d (front %d), want 10", len(got[3]), n3.mq.Front())
	}
	if lo, hi := n3.RejoinFresh(10); lo <= hi || n3.mq.Front() != 10 {
		t.Fatalf("RejoinFresh at the front discarded [%d, %d], front now %d", lo, hi, n3.mq.Front())
	}
	if lo, hi := n3.RejoinFresh(15); lo != 11 || hi != 15 {
		t.Fatalf("RejoinFresh(15) from front 10 = [%d, %d], want [11, 15]", lo, hi)
	}
	submitEvery(t, e, sched, 1, 10, sched.Now()+sim.Millisecond, sim.Millisecond)
	run(t, sched, 300*sim.Millisecond)
	if len(got[1]) != 20 {
		t.Fatalf("steady member delivered %d, want 20", len(got[1]))
	}
	if len(got[3]) != 15 {
		t.Fatalf("rejoined member delivered %d, want 10 before + 5 after the baseline", len(got[3]))
	}
	for i, d := range got[3][10:] {
		if want := seq.GlobalSeq(16 + i); d.GlobalSeq != want {
			t.Fatalf("delivery %d after the rejoin is g=%d, want %d", i, d.GlobalSeq, want)
		}
	}
}
