package core

import (
	"testing"
	"testing/quick"

	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestAPFailureAndRecovery crashes an AP mid-stream, recovers it, and
// verifies it rejoins the delivery tree and serves a newly arriving MH.
func TestAPFailureAndRecovery(t *testing.T) {
	r := newRig(t, smallSpec(), nil)
	r.pump([]seq.NodeID{r.b.BRs[0]}, 200, 2*sim.Millisecond, 10*sim.Millisecond)
	victim := r.b.APs[0]
	movedHosts := r.e.H.HostsAt(victim)
	r.sched.At(50*sim.Millisecond, func() {
		r.e.FailNode(victim)
		// Mobility would rescue the orphans; move them by hand.
		for _, h := range movedHosts {
			if err := r.e.Handoff(h, r.b.APs[1], false); err != nil {
				t.Errorf("rescue handoff: %v", err)
			}
		}
	})
	r.sched.At(150*sim.Millisecond, func() {
		r.e.RecoverNode(victim)
	})
	// A fresh member joins the recovered AP later.
	late := seq.HostID(500)
	r.sched.At(300*sim.Millisecond, func() {
		if err := r.e.AddMH(late, victim); err != nil {
			t.Errorf("AddMH to recovered AP: %v", err)
		}
	})
	r.run(10 * sim.Second)
	if err := r.e.Log.Err(); err != nil {
		t.Fatal(err)
	}
	// Rescued hosts must have the full stream.
	for _, h := range movedHosts {
		if got := r.e.Log.DeliveredAt(uint32(h)); got != 200 {
			t.Fatalf("rescued host %v delivered %d/200", h, got)
		}
	}
	// The late joiner converges to the same final position.
	if r.e.Log.LastAt(uint32(late)) != r.e.Log.LastAt(uint32(movedHosts[0])) {
		t.Fatalf("late joiner at %d, others at %d",
			r.e.Log.LastAt(uint32(late)), r.e.Log.LastAt(uint32(movedHosts[0])))
	}
	if r.e.Log.DeliveredAt(uint32(late)) == 0 {
		t.Fatal("late joiner on recovered AP delivered nothing")
	}
}

// TestNackGapRepair removes a top-ring node that has acked WQ messages
// but not yet forwarded them, forcing downstream nodes to repair the gap
// from their predecessor's MQ via Nack.
func TestNackGapRepair(t *testing.T) {
	r := newRig(t, topology.Spec{BRs: 4, AGRings: 2, AGSize: 2, APsPerAG: 1, MHsPerAP: 1},
		func(c *Config) { c.NackTimeout = 20 * sim.Millisecond })
	r.pump([]seq.NodeID{r.b.BRs[0]}, 150, 1*sim.Millisecond, 10*sim.Millisecond)
	victim := r.b.BRs[1] // sits between BR0 (the source) and BR2 on the ring
	r.sched.At(60*sim.Millisecond, func() {
		r.e.FailNode(victim)
		if _, _, err := r.e.H.RemoveFromRing(victim); err != nil {
			t.Errorf("repair: %v", err)
		}
		r.e.OnTopologyChanged(r.b.BRs[0], r.b.BRs[2], r.b.BRs[3])
		r.e.OnTokenLoss(r.b.BRs[0])
	})
	r.sched.At(700*sim.Millisecond, func() { r.e.OnTokenLoss(r.b.BRs[2]) })
	r.run(30 * sim.Second)
	if err := r.e.Log.Err(); err != nil {
		t.Fatal(err)
	}
	// Hosts not under the dead BR must still get everything.
	for _, h := range r.b.Hosts {
		ap := r.e.H.APOf(h)
		ag := r.e.H.Node(ap).Parent
		ld := r.e.H.RingOf(ag).Leader()
		if r.e.H.Node(ld).Parent == victim || r.e.H.Node(ld).Parent == seq.None {
			continue
		}
		if got := r.e.Log.DeliveredAt(uint32(h)); got != 150 {
			t.Fatalf("host %v delivered %d/150", h, got)
		}
	}
}

// TestNackRepairReverseLink: a broadcast Nack can come from a ring
// member the responder has never linked to — links are directional, and
// before the fix the served bodies were silently dropped (DroppedNoRoute)
// on the missing return link, letting the requester's fruitless rounds
// climb to the really-lost give-up on a body a live member was holding.
func TestNackRepairReverseLink(t *testing.T) {
	r := newRig(t, topology.Spec{BRs: 4, AGRings: 2, AGSize: 2, APsPerAG: 1, MHsPerAP: 1}, nil)
	r.pump([]seq.NodeID{r.b.BRs[0]}, 20, 1*sim.Millisecond, 10*sim.Millisecond)
	r.run(2 * sim.Second)
	responder := r.e.NE(r.b.BRs[0])
	requester := r.b.BRs[2] // two ring hops away: no direct link either way
	if r.e.Net.Linked(r.b.BRs[0], requester) {
		t.Fatalf("precondition: BR0 already linked to BR2; pick a non-neighbor")
	}
	if responder.mq.Data(1) == nil {
		t.Fatal("precondition: responder retains no body for global seq 1")
	}
	before := r.e.Net.Stats().DroppedNoRoute
	responder.handleNack(requester, &msg.Nack{
		Group: 1, From: requester, Range: seq.Range{Min: 1, Max: 4},
	})
	if after := r.e.Net.Stats().DroppedNoRoute; after != before {
		t.Fatalf("repair bodies dropped on missing return link: DroppedNoRoute %d -> %d", before, after)
	}
	if !r.e.Net.Linked(r.b.BRs[0], requester) {
		t.Fatal("handleNack did not establish the return link to the requester")
	}
}

// TestReservationExpiry: a reserved AP with no members leaves the tree
// after the reservation lapses.
func TestReservationExpiry(t *testing.T) {
	spec := topology.Spec{BRs: 3, AGRings: 1, AGSize: 1, APsPerAG: 2, MHsPerAP: 0}
	r := newRig(t, spec, func(c *Config) {
		c.ReserveFor = 200 * sim.Millisecond
		c.Linger = 50 * sim.Millisecond
	})
	ap := r.e.NE(r.b.APs[1])
	// Reserve directly (as a sibling's reserveNearby would).
	r.sched.At(10*sim.Millisecond, func() {
		ap.handleReserve(r.b.APs[0], &msg.Reserve{Group: 1, From: r.b.APs[0], TTL: 1})
	})
	r.run(100 * sim.Millisecond)
	if !ap.active {
		t.Fatal("reserved AP not active")
	}
	r.run(2 * sim.Second)
	if ap.active {
		t.Fatal("reservation did not expire")
	}
}

// TestTokenForwardingToCrashedNext: the holder's courier fails, retries
// after repair, and ordering continues.
func TestTokenForwardToCrashedNext(t *testing.T) {
	r := newRig(t, smallSpec(), func(c *Config) {
		c.TokenLossThreshold = 200 * sim.Millisecond
	})
	r.pump([]seq.NodeID{r.b.BRs[0]}, 100, 2*sim.Millisecond, 10*sim.Millisecond)
	// Crash BR1 (a likely "next" of BR0) without immediate repair:
	// the courier must keep failing and retrying until the membership
	// protocol (simulated here with a delay) splices the ring.
	victim := r.b.BRs[1]
	r.sched.At(30*sim.Millisecond, func() { r.e.FailNode(victim) })
	r.sched.At(330*sim.Millisecond, func() {
		if _, _, err := r.e.H.RemoveFromRing(victim); err != nil {
			t.Errorf("repair: %v", err)
		}
		r.e.OnTopologyChanged(r.b.BRs[0], r.b.BRs[2])
		r.e.OnTokenLoss(r.b.BRs[0])
		r.e.OnTokenLoss(r.b.BRs[2])
	})
	r.run(30 * sim.Second)
	if err := r.e.Log.Err(); err != nil {
		t.Fatal(err)
	}
	for _, h := range r.b.Hosts {
		ap := r.e.H.APOf(h)
		ag := r.e.H.Node(ap).Parent
		ld := r.e.H.RingOf(ag).Leader()
		if r.e.H.Node(ld).Parent == victim || r.e.H.Node(ld).Parent == seq.None {
			continue
		}
		if got := r.e.Log.DeliveredAt(uint32(h)); got != 100 {
			t.Fatalf("host %v delivered %d/100", h, got)
		}
	}
}

// TestChurnPropertyRandomOps drives a random mix of submits, handoffs,
// joins, and leaves over a fixed topology and checks the global
// invariants after quiescence: no order violation, hierarchy valid, MQ
// pointers valid everywhere.
func TestChurnPropertyRandomOps(t *testing.T) {
	f := func(opsRaw []uint8, seed uint16) bool {
		sched := sim.NewScheduler()
		sched.MaxEvents = 50_000_000
		net := netsim.New(sched, sim.NewRNG(uint64(seed)))
		b, err := topology.Build(topology.Spec{BRs: 3, AGRings: 2, AGSize: 2, APsPerAG: 2, MHsPerAP: 1})
		if err != nil {
			return false
		}
		e := NewEngine(1, DefaultConfig(), net, b.H)
		if err := e.Start(); err != nil {
			return false
		}
		rng := sim.NewRNG(uint64(seed) + 1)
		nextHost := seq.HostID(1000)
		alive := append([]seq.HostID(nil), b.Hosts...)
		at := sim.Time(10 * sim.Millisecond)
		for _, op := range opsRaw {
			op := op
			at += sim.Time(rng.Intn(int(5 * sim.Millisecond)))
			switch op % 5 {
			case 0, 1: // submit
				src := b.BRs[int(op)%len(b.BRs)]
				sched.At(at, func() { e.Submit(src, []byte("p")) })
			case 2: // handoff
				if len(alive) > 0 {
					h := alive[rng.Intn(len(alive))]
					ap := b.APs[rng.Intn(len(b.APs))]
					sched.At(at, func() { e.Handoff(h, ap, op%2 == 0) })
				}
			case 3: // join
				nextHost++
				h := nextHost
				ap := b.APs[rng.Intn(len(b.APs))]
				alive = append(alive, h)
				sched.At(at, func() { e.AddMH(h, ap) })
			case 4: // leave
				if len(alive) > 1 {
					i := rng.Intn(len(alive))
					h := alive[i]
					alive = append(alive[:i], alive[i+1:]...)
					sched.At(at, func() { e.RemoveMH(h) })
				}
			}
		}
		if _, err := sched.Run(at + 20*sim.Second); err != nil {
			return false
		}
		if e.Log.Err() != nil {
			t.Logf("order violation: %v", e.Log.Err())
			return false
		}
		if err := e.H.Validate(); err != nil {
			t.Logf("hierarchy: %v", err)
			return false
		}
		for _, id := range e.NEs() {
			if err := e.NE(id).MQ().Validate(); err != nil {
				t.Logf("MQ %v: %v", id, err)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 15}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestManySources uses every top-ring node as a source simultaneously
// (s = r, the theorem's boundary case).
func TestManySources(t *testing.T) {
	r := newRig(t, topology.Spec{BRs: 6, AGRings: 2, AGSize: 2, APsPerAG: 1, MHsPerAP: 1}, nil)
	r.pump(r.b.BRs, 40, 2*sim.Millisecond, 10*sim.Millisecond)
	r.run(15 * sim.Second)
	r.assertClean(uint64(40 * 6))
}

// TestSingletonTopRing: a single-BR deployment still orders (token
// revisits itself).
func TestSingletonTopRing(t *testing.T) {
	r := newRig(t, topology.Spec{BRs: 1, AGRings: 1, AGSize: 2, APsPerAG: 1, MHsPerAP: 2}, nil)
	r.pump([]seq.NodeID{r.b.BRs[0]}, 50, 2*sim.Millisecond, 10*sim.Millisecond)
	r.run(10 * sim.Second)
	r.assertClean(50)
}

// TestPayloadIntegrity verifies payload bytes survive the full path.
func TestPayloadIntegrity(t *testing.T) {
	r := newRig(t, smallSpec(), nil)
	want := map[seq.LocalSeq]byte{}
	for i := 0; i < 30; i++ {
		i := i
		r.sched.At(sim.Time(10+i)*sim.Millisecond, func() {
			l, err := r.e.Submit(r.b.BRs[0], []byte{byte(i), 0xAB})
			if err != nil {
				t.Error(err)
				return
			}
			want[l] = byte(i)
		})
	}
	h := r.b.Hosts[0]
	got := map[seq.LocalSeq]byte{}
	r.e.MHOf(h).OnDeliver = func(d *msg.Data) {
		if len(d.Payload) != 2 || d.Payload[1] != 0xAB {
			t.Errorf("corrupt payload %v", d.Payload)
		}
		got[d.LocalSeq] = d.Payload[0]
	}
	r.run(10 * sim.Second)
	if len(got) != 30 {
		t.Fatalf("delivered %d/30", len(got))
	}
	for l, b := range want {
		if got[l] != b {
			t.Fatalf("payload mismatch at %d: %d vs %d", l, got[l], b)
		}
	}
}

// TestQuiescedDetectsOutstanding ensures Quiesced is false while traffic
// is in flight and true afterwards.
func TestQuiescedDetectsOutstanding(t *testing.T) {
	r := newRig(t, smallSpec(), nil)
	r.pump([]seq.NodeID{r.b.BRs[0]}, 20, 1*sim.Millisecond, 10*sim.Millisecond)
	r.run(15 * sim.Millisecond)
	if r.e.Quiesced() {
		t.Fatal("quiesced mid-flight")
	}
	r.run(10 * sim.Second)
	if !r.e.Quiesced() {
		t.Fatal("not quiesced after drain")
	}
}

// TestMHWindowBound: the reassembly window never exceeds MHWindow.
func TestMHWindowBound(t *testing.T) {
	r := newRig(t, smallSpec(), func(c *Config) { c.MHWindow = 8 })
	r.pump([]seq.NodeID{r.b.BRs[0], r.b.BRs[1]}, 100, 500*sim.Microsecond, 10*sim.Millisecond)
	checker := r.sched.Every(5*sim.Millisecond, func() {
		for _, h := range r.b.Hosts {
			if m := r.e.MHOf(h); m != nil && len(m.pending) > 8 {
				t.Fatalf("host %v window %d > 8", h, len(m.pending))
			}
		}
	})
	r.run(10 * sim.Second)
	checker.Stop()
	if err := r.e.Log.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDeepHierarchyEndToEnd runs the protocol over nested AG sub-tiers
// (paper §3: sub-tiers of the AGT are allowed): 2 BRs, two levels of AG
// rings, APs under the deepest gateways.
func TestDeepHierarchyEndToEnd(t *testing.T) {
	sched := sim.NewScheduler()
	sched.MaxEvents = 50_000_000
	net := netsim.New(sched, sim.NewRNG(21))
	b, err := topology.BuildDeep(2, 2, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(1, DefaultConfig(), net, b.H)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		at := sim.Time(10+2*i) * sim.Millisecond
		sched.At(at, func() { e.Submit(b.BRs[0], []byte("deep")) })
		sched.At(at+sim.Millisecond, func() { e.Submit(b.BRs[1], []byte("deep2")) })
	}
	if _, err := sched.Run(15 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if err := e.Log.Err(); err != nil {
		t.Fatal(err)
	}
	if e.Log.Receivers() != 8 {
		t.Fatalf("receivers = %d, want 8", e.Log.Receivers())
	}
	if e.Log.MinDelivered() != 120 {
		t.Fatalf("MinDelivered = %d, want 120", e.Log.MinDelivered())
	}
}

// TestLongRunCompaction soaks the protocol long enough that WTSNP
// compaction must run (tiny CompactAbove/CompactKeep), then verifies
// ordering stayed correct and the assignment tables stayed bounded.
func TestLongRunCompaction(t *testing.T) {
	r := newRig(t, smallSpec(), func(c *Config) {
		c.CompactAbove = 32
		c.CompactKeep = 256
	})
	const count = 2000
	r.pump([]seq.NodeID{r.b.BRs[0], r.b.BRs[1]}, count, 1*sim.Millisecond, 10*sim.Millisecond)
	r.run(30 * sim.Second)
	r.assertClean(2 * count)
	for _, br := range r.b.BRs {
		ne := r.e.NE(br)
		if ne.assign == nil {
			continue
		}
		if ne.assign.Len() > 1024 {
			t.Fatalf("BR %v assignment table grew to %d entries (compaction broken)", br, ne.assign.Len())
		}
		if ne.newToken != nil && ne.newToken.Table.Len() > 64 {
			t.Fatalf("BR %v token table %d entries > CompactAbove margin", br, ne.newToken.Table.Len())
		}
	}
}

// TestTokenBoundedBelowCompactKeep pins the size-capped compaction path:
// with a CompactKeep window that never opens (the global sequence stays
// far below it), CompactAbove alone must still hard-cap the circulating
// token's table — the seed let it grow without bound until the sequence
// passed CompactKeep. Ordering must survive the aggressive compaction
// (high-water marks carry duplicate detection for the dropped prefix).
func TestTokenBoundedBelowCompactKeep(t *testing.T) {
	r := newRig(t, smallSpec(), func(c *Config) {
		c.CompactAbove = 32
		c.CompactKeep = 1 << 40 // window never opens during this run
	})
	const count = 2000
	r.pump([]seq.NodeID{r.b.BRs[0], r.b.BRs[1]}, count, 1*sim.Millisecond, 10*sim.Millisecond)
	r.run(30 * sim.Second)
	r.assertClean(2 * count)
	for _, br := range r.b.BRs {
		ne := r.e.NE(br)
		if ne.newToken == nil {
			continue
		}
		// One rotation can add at most a handful of entries beyond the
		// cap before the next holder compacts again.
		if n := ne.newToken.Table.Len(); n > 64 {
			t.Fatalf("BR %v token table %d entries despite CompactAbove=32 (size cap not engaged)", br, n)
		}
		if err := ne.newToken.Table.Validate(); err != nil {
			t.Fatalf("BR %v token table: %v", br, err)
		}
	}
}

// TestSizeCapRespectsRingRotation pins the rotation-safety floor of the
// size cap: with CompactAbove smaller than the top ring, naive
// cut-to-newest compaction would drop entries before they finish one
// circulation, leaving some nodes permanently unable to resolve those
// assignments. The floor (two rotations' worth) must keep ordering
// complete while still bounding the table.
func TestSizeCapRespectsRingRotation(t *testing.T) {
	spec := topology.Spec{BRs: 8, AGRings: 1, AGSize: 1, APsPerAG: 1, MHsPerAP: 1}
	r := newRig(t, spec, func(c *Config) {
		c.CompactAbove = 4      // far below the 8-node top ring
		c.CompactKeep = 1 << 40 // seq window never opens
	})
	const count = 300
	// Every BR is a source, maximizing entries added per rotation.
	r.pump(r.b.BRs, count, 2*sim.Millisecond, 10*sim.Millisecond)
	r.run(30 * sim.Second)
	r.assertClean(uint64(count * len(r.b.BRs)))
	for _, br := range r.b.BRs {
		ne := r.e.NE(br)
		if ne.newToken == nil {
			continue
		}
		// Bounded by the rotation floor (2·ring = 16) plus one
		// rotation of growth before the next compaction.
		if n := ne.newToken.Table.Len(); n > 3*2*len(r.b.BRs) {
			t.Fatalf("BR %v token table %d entries, want ≤ %d", br, n, 3*2*len(r.b.BRs))
		}
	}
}
