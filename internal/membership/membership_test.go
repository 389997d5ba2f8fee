package membership

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/topology"
)

type rig struct {
	t     *testing.T
	sched *sim.Scheduler
	net   *netsim.Network
	b     *topology.Built
	e     *core.Engine
	m     *Manager
}

func newRig(t *testing.T, spec topology.Spec) *rig {
	t.Helper()
	sched := sim.NewScheduler()
	sched.MaxEvents = 50_000_000
	net := netsim.New(sched, sim.NewRNG(7))
	b, err := topology.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(1, core.DefaultConfig(), net, b.H)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	m := New(e, DefaultConfig())
	m.Start()
	return &rig{t: t, sched: sched, net: net, b: b, e: e, m: m}
}

func (r *rig) run(until sim.Time) {
	r.t.Helper()
	if _, err := r.sched.Run(until); err != nil {
		r.t.Fatal(err)
	}
}

func spec() topology.Spec {
	return topology.Spec{BRs: 4, AGRings: 2, AGSize: 3, APsPerAG: 1, MHsPerAP: 1}
}

func TestNoFalsePositivesWhenHealthy(t *testing.T) {
	r := newRig(t, spec())
	r.run(3 * sim.Second)
	if r.m.Repairs != 0 {
		t.Fatalf("healthy network produced %d repairs", r.m.Repairs)
	}
	if r.m.TokenLossSignals != 0 {
		t.Fatalf("healthy network produced %d token-loss signals", r.m.TokenLossSignals)
	}
}

func TestDetectsAndRepairsBRFailure(t *testing.T) {
	r := newRig(t, spec())
	r.run(500 * sim.Millisecond)
	victim := r.b.BRs[3] // a BR with no AG children in this spec
	r.e.FailNode(victim)
	r.run(2 * sim.Second)
	if r.m.Repairs == 0 {
		t.Fatal("BR failure not repaired")
	}
	top := r.e.H.TopRing()
	if top.Contains(victim) {
		t.Fatal("victim still in top ring")
	}
	if top.Len() != 3 {
		t.Fatalf("top ring size %d, want 3", top.Len())
	}
	if r.m.TokenLossSignals == 0 {
		t.Fatal("top-ring maintenance did not emit Token-Loss")
	}
	if err := r.e.H.Validate(); err != nil {
		t.Fatal(err)
	}
	// Multicast still works end-to-end after repair.
	for i := 0; i < 20; i++ {
		at := r.sched.Now() + sim.Time(i)*sim.Millisecond
		r.sched.At(at, func() { r.e.Submit(r.b.BRs[0], []byte("post-repair")) })
	}
	r.run(r.sched.Now() + 10*sim.Second)
	if err := r.e.Log.Err(); err != nil {
		t.Fatal(err)
	}
	if r.e.Log.MinDelivered() != 20 {
		t.Fatalf("post-repair MinDelivered = %d, want 20", r.e.Log.MinDelivered())
	}
}

func TestTokenHolderFailureRecovers(t *testing.T) {
	r := newRig(t, spec())
	// Start traffic.
	for i := 0; i < 100; i++ {
		at := sim.Time(100+i*2) * sim.Millisecond
		r.sched.At(at, func() { r.e.Submit(r.b.BRs[0], []byte("x")) })
	}
	// Kill the token holder mid-circulation: find whoever holds it by
	// failing a BR shortly after start regardless of role (with 4 BRs
	// and sub-ms circulation the victim holds the token frequently).
	r.sched.At(150*sim.Millisecond, func() { r.e.FailNode(r.b.BRs[1]) })
	r.run(15 * sim.Second)
	if err := r.e.Log.Err(); err != nil {
		t.Fatalf("ordering violated after holder failure: %v", err)
	}
	// All hosts fed by surviving BRs deliver the full stream.
	if r.e.Log.MinDelivered() != 100 {
		t.Fatalf("MinDelivered = %d, want 100", r.e.Log.MinDelivered())
	}
	if err := r.e.H.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAGFailureRepairsRingAndReparents(t *testing.T) {
	r := newRig(t, spec())
	r.run(300 * sim.Millisecond)
	// Fail an AG ring leader: ring must bypass it, next member becomes
	// leader and re-attaches to a BR.
	ringID := r.b.AGRing[0]
	leader := r.e.H.Ring(ringID).Leader()
	r.e.FailNode(leader)
	r.run(2 * sim.Second)
	ring := r.e.H.Ring(ringID)
	if ring == nil {
		t.Fatal("AG ring vanished")
	}
	if ring.Contains(leader) {
		t.Fatal("dead leader still in ring")
	}
	newLeader := ring.Leader()
	if newLeader == leader || r.e.H.Node(newLeader).Parent == seq.None {
		t.Fatalf("leadership not recovered: leader=%v parent=%v", newLeader, r.e.H.Node(newLeader).Parent)
	}
	if err := r.e.H.Validate(); err != nil {
		t.Fatal(err)
	}
	// Traffic flows to the survivors under the repaired ring.
	for i := 0; i < 20; i++ {
		at := r.sched.Now() + sim.Time(i)*sim.Millisecond
		r.sched.At(at, func() { r.e.Submit(r.b.BRs[0], []byte("y")) })
	}
	r.run(r.sched.Now() + 10*sim.Second)
	if err := r.e.Log.Err(); err != nil {
		t.Fatal(err)
	}
	// Hosts whose AP hung off the dead AG are orphaned (mobility would
	// rescue them); every other host must get everything.
	for _, h := range r.b.Hosts {
		ap := r.e.H.APOf(h)
		if r.e.H.Node(ap).Parent == seq.None || r.e.H.Node(ap).Parent == leader {
			continue
		}
		if got := r.e.Log.DeliveredAt(uint32(h)); got != 20 {
			t.Fatalf("host %v delivered %d/20", h, got)
		}
	}
}

func TestGroupSizePropagation(t *testing.T) {
	r := newRig(t, spec())
	for i := 0; i < 5; i++ {
		r.m.NotifyJoin(r.b.APs[0])
	}
	r.m.NotifyLeave(r.b.APs[1])
	r.run(2 * sim.Second)
	if got := r.m.GroupSize(); got != 4 {
		t.Fatalf("GroupSize = %d, want 4", got)
	}
}

func TestMergeTopRingsSignalsMultipleToken(t *testing.T) {
	// Build two disjoint hierarchies' worth of BRs in one hierarchy: a
	// second BR ring, then merge.
	sched := sim.NewScheduler()
	net := netsim.New(sched, sim.NewRNG(7))
	b, err := topology.Build(topology.Spec{BRs: 3, AGRings: 1, AGSize: 2, APsPerAG: 1, MHsPerAP: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := b.H
	// Second top ring of fresh BRs.
	var extra []seq.NodeID
	for id := seq.NodeID(100); id < 103; id++ {
		if _, err := h.AddNode(id, topology.TierBR); err != nil {
			t.Fatal(err)
		}
		extra = append(extra, id)
	}
	r2, err := h.NewRing(topology.TierBR, extra...)
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(1, core.DefaultConfig(), net, h)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	m := New(e, DefaultConfig())
	m.Start()
	if _, err := sched.Run(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	top := h.TopRing()
	if err := m.MergeTopRings(top.ID, r2.ID); err != nil {
		t.Fatal(err)
	}
	if h.TopRing().Len() != 6 {
		t.Fatalf("merged ring size %d", h.TopRing().Len())
	}
	if _, err := sched.Run(3 * sim.Second); err != nil {
		t.Fatal(err)
	}
	// Ordering still alive after the merge episode.
	for i := 0; i < 10; i++ {
		at := sched.Now() + sim.Time(i)*sim.Millisecond
		sched.At(at, func() { e.Submit(b.BRs[0], []byte("z")) })
	}
	if _, err := sched.Run(sched.Now() + 5*sim.Second); err != nil {
		t.Fatal(err)
	}
	if err := e.Log.Err(); err != nil {
		t.Fatal(err)
	}
	if e.Log.MinDelivered() != 10 {
		t.Fatalf("MinDelivered after merge = %d", e.Log.MinDelivered())
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveredNodeNotAmputated(t *testing.T) {
	r := newRig(t, spec())
	r.run(300 * sim.Millisecond)
	victim := r.b.BRs[2]
	r.e.FailNode(victim)
	// Recover before the suspicion threshold expires.
	r.sched.After(40*sim.Millisecond, func() { r.e.RecoverNode(victim) })
	r.run(2 * sim.Second)
	if !r.e.H.TopRing().Contains(victim) {
		t.Fatal("briefly-failed node was amputated")
	}
}

// TestDetector pins the shared failure detector's contract (both the
// sim manager and the wire membership plane build on it).
func TestDetector(t *testing.T) {
	d := NewDetector(100 * sim.Millisecond)
	d.Watch(2, 0)
	d.Watch(3, 0)
	d.Watch(2, 50*sim.Millisecond) // must not reset a running clock
	if s := d.Silent(90 * sim.Millisecond); len(s) != 0 {
		t.Fatalf("silent before threshold: %v", s)
	}
	d.Heard(3, 80*sim.Millisecond)
	s := d.Silent(150 * sim.Millisecond)
	if len(s) != 1 || s[0] != 2 {
		t.Fatalf("want [2] silent, got %v", s)
	}
	if s := d.Silent(200 * sim.Millisecond); len(s) != 2 || s[0] != 2 || s[1] != 3 {
		t.Fatalf("want sorted [2 3], got %v", s)
	}
	d.Forget(2)
	if s := d.Silent(200 * sim.Millisecond); len(s) != 1 || s[0] != 3 {
		t.Fatalf("want [3] after Forget, got %v", s)
	}
}
