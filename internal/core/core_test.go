package core

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/topology"
)

// rig builds an engine over a freshly built hierarchy.
type rig struct {
	t     *testing.T
	sched *sim.Scheduler
	net   *netsim.Network
	b     *topology.Built
	e     *Engine
}

func newRig(t *testing.T, spec topology.Spec, mutate func(*Config)) *rig {
	t.Helper()
	sched := sim.NewScheduler()
	sched.MaxEvents = 20_000_000
	net := netsim.New(sched, sim.NewRNG(42))
	b, err := topology.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	e := NewEngine(1, cfg, net, b.H)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	return &rig{t: t, sched: sched, net: net, b: b, e: e}
}

// pump submits count messages from each of the given sources, spaced by
// gap, starting at start.
func (r *rig) pump(sources []seq.NodeID, count int, gap sim.Time, start sim.Time) {
	for i := 0; i < count; i++ {
		at := start + sim.Time(i)*gap
		for _, src := range sources {
			src := src
			r.sched.At(at, func() {
				if _, err := r.e.Submit(src, []byte("m")); err != nil {
					r.t.Errorf("Submit(%v): %v", src, err)
				}
			})
		}
	}
}

func (r *rig) run(until sim.Time) {
	r.t.Helper()
	if _, err := r.sched.Run(until); err != nil {
		r.t.Fatalf("run: %v", err)
	}
}

func (r *rig) assertClean(wantPerMH uint64) {
	r.t.Helper()
	if err := r.e.Log.Err(); err != nil {
		r.t.Fatalf("ordering violation: %v", err)
	}
	if got := r.e.Log.Receivers(); got != r.e.H.Hosts() {
		r.t.Fatalf("receivers = %d, want %d", got, r.e.H.Hosts())
	}
	if min := r.e.Log.MinDelivered(); min != wantPerMH {
		r.t.Fatalf("MinDelivered = %d, want %d", min, wantPerMH)
	}
}

func smallSpec() topology.Spec {
	return topology.Spec{BRs: 3, AGRings: 2, AGSize: 2, APsPerAG: 1, MHsPerAP: 2}
}

func TestEndToEndSingleSource(t *testing.T) {
	r := newRig(t, smallSpec(), nil)
	src := r.b.BRs[0]
	r.pump([]seq.NodeID{src}, 20, 2*sim.Millisecond, 100*sim.Millisecond)
	r.run(5 * sim.Second)
	r.assertClean(20)
	if r.e.Log.Gaps.Value() != 0 {
		t.Fatalf("gaps = %d on a loss-free network", r.e.Log.Gaps.Value())
	}
}

func TestEndToEndMultiSourceTotalOrder(t *testing.T) {
	r := newRig(t, smallSpec(), nil)
	srcs := []seq.NodeID{r.b.BRs[0], r.b.BRs[1], r.b.BRs[2]}
	r.pump(srcs, 40, 1*sim.Millisecond, 50*sim.Millisecond)
	r.run(10 * sim.Second)
	r.assertClean(120)
	// Per-source FIFO is implied by the content map plus strictly
	// increasing global seqs, but double-check latency data flowed.
	if r.e.Log.Latency.N() == 0 {
		t.Fatal("no latency samples")
	}
}

func TestTotalOrderUnderLoss(t *testing.T) {
	r := newRig(t, smallSpec(), nil)
	// Degrade every wired link with 2% loss after the fact.
	for _, a := range r.e.H.NodeIDs() {
		for _, bID := range r.e.H.NodeIDs() {
			if a != bID && r.net.Linked(a, bID) {
				p, _ := r.net.LinkParamsOf(a, bID)
				p.Loss = 0.02
				r.net.ConnectDirected(a, bID, p)
			}
		}
	}
	srcs := []seq.NodeID{r.b.BRs[0], r.b.BRs[1]}
	r.pump(srcs, 50, 2*sim.Millisecond, 50*sim.Millisecond)
	r.run(30 * sim.Second)
	r.assertClean(100)
}

func TestThroughputOrderedMatchesOffered(t *testing.T) {
	// Theorem 5.1: ordered multicast sustains s·λ.
	r := newRig(t, smallSpec(), nil)
	srcs := []seq.NodeID{r.b.BRs[0], r.b.BRs[1]}
	const n = 200
	gap := 1 * sim.Millisecond // λ = 1000 msg/s per source
	r.pump(srcs, n, gap, 100*sim.Millisecond)
	r.run(10 * sim.Second)
	r.assertClean(2 * n)
	th := r.e.Log.Throughput()
	offered := 2.0 * 1000.0
	if th < offered*0.9 {
		t.Fatalf("throughput %.0f/s below 90%% of offered %.0f/s", th, offered)
	}
}

func TestLatencyBounded(t *testing.T) {
	r := newRig(t, smallSpec(), nil)
	r.pump([]seq.NodeID{r.b.BRs[0]}, 100, 5*sim.Millisecond, 100*sim.Millisecond)
	r.run(10 * sim.Second)
	r.assertClean(100)
	// Torder for a 3-node top ring at 2ms/hop ≈ 6ms + holds; τ = 5ms;
	// Tdeliver over 3 wired hops + wireless ≈ 20ms. The analytical
	// bound is max(Torder,Ttransmit)+τ+Tdeliver plus per-hop acks; it
	// is comfortably under 150ms.
	if max := r.e.Log.Latency.Max(); max > 0.15 {
		t.Fatalf("max latency %.3fs exceeds analytic envelope", max)
	}
}

func TestBuffersBoundedAndReleased(t *testing.T) {
	r := newRig(t, smallSpec(), nil)
	r.pump([]seq.NodeID{r.b.BRs[0], r.b.BRs[1]}, 300, 1*sim.Millisecond, 50*sim.Millisecond)
	r.run(15 * sim.Second)
	r.assertClean(600)
	buf := r.e.Buffers()
	if buf.Overflows != 0 {
		t.Fatalf("MQ overflows: %d", buf.Overflows)
	}
	// After quiescence every MQ must have been garbage-collected down
	// to the retention margin.
	for _, id := range r.e.NEs() {
		q := r.e.NE(id).MQ()
		if q.Len() > r.e.Cfg.RetainExtra {
			t.Fatalf("node %v MQ not released: %v", id, q)
		}
	}
	if !r.e.Quiesced() {
		t.Fatal("engine not quiesced after idle period")
	}
}

func TestMQValidateEverywhere(t *testing.T) {
	r := newRig(t, smallSpec(), nil)
	r.pump([]seq.NodeID{r.b.BRs[0]}, 50, 1*sim.Millisecond, 10*sim.Millisecond)
	r.run(5 * sim.Second)
	for _, id := range r.e.NEs() {
		if err := r.e.NE(id).MQ().Validate(); err != nil {
			t.Fatalf("node %v: %v", id, err)
		}
	}
}

func TestJoinMidStream(t *testing.T) {
	r := newRig(t, smallSpec(), nil)
	r.pump([]seq.NodeID{r.b.BRs[0]}, 100, 2*sim.Millisecond, 10*sim.Millisecond)
	// A new MH joins half-way through the stream.
	newHost := seq.HostID(1000)
	r.sched.At(100*sim.Millisecond, func() {
		if err := r.e.AddMH(newHost, r.b.APs[0]); err != nil {
			t.Errorf("AddMH: %v", err)
		}
	})
	r.run(5 * sim.Second)
	if err := r.e.Log.Err(); err != nil {
		t.Fatal(err)
	}
	d := r.e.Log.DeliveredAt(uint32(newHost))
	if d == 0 {
		t.Fatal("late joiner delivered nothing")
	}
	if d >= 100 {
		t.Fatalf("late joiner got full history (%d), want join-point semantics", d)
	}
	// The joiner's stream must end at the same final sequence.
	if r.e.Log.LastAt(uint32(newHost)) != r.e.Log.LastAt(uint32(r.b.Hosts[0])) {
		t.Fatal("late joiner did not converge with existing members")
	}
}

// TestJoinFloorBelowEveryStart joins a fresh host at every AP, active
// and virgin, at several instants mid-stream: each joiner's first
// delivery lies above the joinFloor read at its join, so the oracle,
// whose horizon is held there, still holds its content.
func TestJoinFloorBelowEveryStart(t *testing.T) {
	r := newRig(t, topology.Spec{BRs: 3, AGRings: 2, AGSize: 2, APsPerAG: 2, MHsPerAP: 0}, nil)
	for i, ap := range r.b.APs {
		if i%2 == 0 {
			if err := r.e.AddMH(seq.HostID(i+1), ap); err != nil {
				t.Fatal(err)
			}
		}
	}
	r.pump(r.b.BRs, 400, 2*sim.Millisecond, 10*sim.Millisecond)
	first := make(map[seq.HostID]seq.GlobalSeq)
	floorAt := make(map[seq.HostID]seq.GlobalSeq)
	next := seq.HostID(100)
	for _, at := range []sim.Time{200, 450, 700} {
		r.sched.At(at*sim.Millisecond, func() {
			f := r.e.joinFloor()
			for _, ap := range r.b.APs {
				next++
				h := next
				if err := r.e.AddMH(h, ap); err != nil {
					t.Error(err)
					return
				}
				floorAt[h] = f
				r.e.MHOf(h).OnDeliver = func(d *msg.Data) {
					if first[h] == 0 {
						first[h] = d.GlobalSeq
					}
				}
			}
		})
	}
	r.run(10 * sim.Second)
	if err := r.e.Log.Err(); err != nil {
		t.Fatal(err)
	}
	if len(floorAt) != 3*len(r.b.APs) {
		t.Fatalf("%d joiners, want %d", len(floorAt), 3*len(r.b.APs))
	}
	for h, f := range floorAt {
		if first[h] <= f {
			t.Fatalf("joiner %v first delivered global %d, at or below the floor %d read at its join", h, first[h], f)
		}
	}
}

func TestLeave(t *testing.T) {
	r := newRig(t, smallSpec(), nil)
	r.pump([]seq.NodeID{r.b.BRs[0]}, 50, 2*sim.Millisecond, 10*sim.Millisecond)
	gone := r.b.Hosts[0]
	r.sched.At(40*sim.Millisecond, func() { r.e.RemoveMH(gone) })
	r.run(5 * sim.Second)
	if err := r.e.Log.Err(); err != nil {
		t.Fatal(err)
	}
	// Remaining members deliver everything.
	for _, h := range r.b.Hosts[1:] {
		if r.e.Log.DeliveredAt(uint32(h)) != 50 {
			t.Fatalf("host %v delivered %d", h, r.e.Log.DeliveredAt(uint32(h)))
		}
	}
}

func TestHandoffNoLossNoDup(t *testing.T) {
	r := newRig(t, smallSpec(), nil)
	r.pump([]seq.NodeID{r.b.BRs[0]}, 200, 2*sim.Millisecond, 10*sim.Millisecond)
	h := r.b.Hosts[0]
	// Hand off between the four APs every 60ms while traffic flows.
	for i := 0; i < 6; i++ {
		i := i
		r.sched.At(sim.Time(60+(i*60))*sim.Millisecond, func() {
			target := r.b.APs[(i+1)%len(r.b.APs)]
			if err := r.e.Handoff(h, target, true); err != nil {
				t.Errorf("handoff: %v", err)
			}
		})
	}
	r.run(10 * sim.Second)
	if err := r.e.Log.Err(); err != nil {
		t.Fatalf("handoff broke ordering: %v", err)
	}
	// The roaming host must deliver the complete stream: retention
	// covers the handoff gaps on a loss-free network.
	if got := r.e.Log.DeliveredAt(uint32(h)); got != 200 {
		t.Fatalf("roaming host delivered %d/200 (gaps=%d)", got, r.e.Log.Gaps.Value())
	}
}

func TestHandoffToInactiveAP(t *testing.T) {
	// APsPerAG=2 gives APs with no members (inactive). A handoff into
	// one must activate it and resume the stream.
	spec := topology.Spec{BRs: 3, AGRings: 1, AGSize: 2, APsPerAG: 2, MHsPerAP: 0}
	r := newRig(t, spec, nil)
	h := seq.HostID(77)
	if err := r.e.AddMH(h, r.b.APs[0]); err != nil {
		t.Fatal(err)
	}
	r.pump([]seq.NodeID{r.b.BRs[0]}, 100, 2*sim.Millisecond, 10*sim.Millisecond)
	r.sched.At(100*sim.Millisecond, func() {
		if err := r.e.Handoff(h, r.b.APs[3], false); err != nil {
			t.Errorf("handoff: %v", err)
		}
	})
	r.run(5 * sim.Second)
	if err := r.e.Log.Err(); err != nil {
		t.Fatal(err)
	}
	if got := r.e.Log.DeliveredAt(uint32(h)); got != 100 {
		t.Fatalf("delivered %d/100 across activation handoff (gaps=%d)", got, r.e.Log.Gaps.Value())
	}
}

func TestReservationKeepsAPActive(t *testing.T) {
	spec := topology.Spec{BRs: 3, AGRings: 1, AGSize: 1, APsPerAG: 3, MHsPerAP: 0}
	r := newRig(t, spec, func(c *Config) { c.ReserveFor = 5 * sim.Second })
	h := seq.HostID(5)
	if err := r.e.AddMH(h, r.b.APs[0]); err != nil {
		t.Fatal(err)
	}
	r.pump([]seq.NodeID{r.b.BRs[0]}, 100, 5*sim.Millisecond, 10*sim.Millisecond)
	// Handoff WITH reservation: sibling APs pre-join.
	r.sched.At(50*sim.Millisecond, func() {
		if err := r.e.Handoff(h, r.b.APs[1], true); err != nil {
			t.Error(err)
		}
	})
	r.run(300 * sim.Millisecond)
	// By now AP[2] (a sibling of AP[1]) should be active via Reserve.
	ap2 := r.e.NE(r.b.APs[2])
	if !ap2.active {
		t.Fatal("reservation did not activate sibling AP")
	}
	r.run(5 * sim.Second)
	if err := r.e.Log.Err(); err != nil {
		t.Fatal(err)
	}
	if got := r.e.Log.DeliveredAt(uint32(h)); got != 100 {
		t.Fatalf("delivered %d/100", got)
	}
}

func TestAPDeactivatesAfterLinger(t *testing.T) {
	spec := topology.Spec{BRs: 3, AGRings: 1, AGSize: 1, APsPerAG: 2, MHsPerAP: 0}
	r := newRig(t, spec, func(c *Config) {
		c.Linger = 50 * sim.Millisecond
		c.ReserveFor = 100 * sim.Millisecond
	})
	h := seq.HostID(5)
	if err := r.e.AddMH(h, r.b.APs[0]); err != nil {
		t.Fatal(err)
	}
	r.run(10 * sim.Millisecond)
	if !r.e.NE(r.b.APs[0]).active {
		t.Fatal("AP with member not active")
	}
	r.e.RemoveMH(h)
	r.run(1 * sim.Second)
	if r.e.NE(r.b.APs[0]).active {
		t.Fatal("memberless AP still active after linger")
	}
}

func TestTokenCirculates(t *testing.T) {
	r := newRig(t, smallSpec(), nil)
	r.run(1 * sim.Second)
	// After a second the token must have gone around many times.
	rounds := r.e.TokenRounds(r.b.BRs[0])
	if rounds < 10 {
		t.Fatalf("token hops after 1s = %d, want many", rounds)
	}
	for _, br := range r.b.BRs {
		ne := r.e.NE(br)
		if !ne.tokenSeen {
			t.Fatalf("BR %v never saw the token", br)
		}
	}
}

func TestTokenLossRegeneration(t *testing.T) {
	r := newRig(t, smallSpec(), func(c *Config) {
		c.TokenLossThreshold = 100 * sim.Millisecond
	})
	r.pump([]seq.NodeID{r.b.BRs[0], r.b.BRs[1]}, 150, 2*sim.Millisecond, 10*sim.Millisecond)
	victim := r.b.BRs[2]
	// Kill a BR mid-run (it may or may not hold the token), then repair
	// the ring as the membership protocol would, and signal Token-Loss.
	r.sched.At(150*sim.Millisecond, func() {
		r.e.FailNode(victim)
		if _, _, err := r.e.H.RemoveFromRing(victim); err != nil {
			t.Errorf("ring repair: %v", err)
		}
		r.e.OnTopologyChanged(r.b.BRs[0], r.b.BRs[1])
	})
	// Membership signals Token-Loss after its detection delay.
	r.sched.At(400*sim.Millisecond, func() { r.e.OnTokenLoss(r.b.BRs[0]) })
	r.sched.At(450*sim.Millisecond, func() { r.e.OnTokenLoss(r.b.BRs[1]) })
	r.run(20 * sim.Second)
	if err := r.e.Log.Err(); err != nil {
		t.Fatalf("ordering violated across token regeneration: %v", err)
	}
	// Sources kept at BRs[0] and BRs[1] must still be fully delivered
	// to all hosts (the victim carried no sources after death; its
	// subtree hosts are partitioned, so restrict to surviving hosts).
	survivors := 0
	for _, h := range r.b.Hosts {
		ap := r.e.H.APOf(h)
		ag := r.e.H.Node(ap).Parent
		leaderParent := r.e.H.Node(r.e.H.RingOf(ag).Leader()).Parent
		if leaderParent == victim {
			continue // subtree fed by the dead BR
		}
		survivors++
		if got := r.e.Log.DeliveredAt(uint32(h)); got != 300 {
			t.Fatalf("surviving host %v delivered %d/300", h, got)
		}
	}
	if survivors == 0 {
		t.Fatal("test topology left no surviving hosts")
	}
}

func TestTokenLossSignalIgnoredWhenHealthy(t *testing.T) {
	r := newRig(t, smallSpec(), nil)
	r.run(500 * sim.Millisecond)
	before := r.e.NE(r.b.BRs[0]).ctrRegens
	r.e.OnTokenLoss(r.b.BRs[0])
	r.run(1 * sim.Second)
	if r.e.NE(r.b.BRs[0]).ctrRegens != before {
		t.Fatal("healthy node originated a regeneration")
	}
}

func TestMultipleTokenFiltering(t *testing.T) {
	r := newRig(t, smallSpec(), nil)
	r.run(200 * sim.Millisecond)
	// Inject a second, inferior token at BR[1] after arming the filter.
	r.e.OnMultipleToken(r.b.BRs[0])
	r.e.OnMultipleToken(r.b.BRs[1])
	r.e.OnMultipleToken(r.b.BRs[2])
	rogue := seq.NewToken(1) // NextGlobalSeq 1: loses every comparison
	ne := r.e.NE(r.b.BRs[1])
	destroyedBefore := ne.ctrTokenDestroys
	r.sched.After(0, func() { ne.handleToken(r.b.BRs[0], rogue) })
	r.run(2 * sim.Second)
	if ne.ctrTokenDestroys == destroyedBefore {
		t.Fatal("rogue token not destroyed")
	}
	// The real token must still be alive: ordering continues.
	r.pump([]seq.NodeID{r.b.BRs[0]}, 10, 1*sim.Millisecond, r.sched.Now()+10*sim.Millisecond)
	r.run(r.sched.Now() + 3*sim.Second)
	if err := r.e.Log.Err(); err != nil {
		t.Fatal(err)
	}
	if r.e.Log.MinDelivered() == 0 {
		t.Fatal("ordering dead after multiple-token episode")
	}
}

func TestSubmitErrors(t *testing.T) {
	r := newRig(t, smallSpec(), nil)
	if _, err := r.e.Submit(9999, nil); err == nil {
		t.Fatal("submit to unknown node accepted")
	}
	if _, err := r.e.Submit(r.b.AGs[0], nil); err == nil {
		t.Fatal("submit to non-top node accepted")
	}
}

func TestHandoffErrors(t *testing.T) {
	r := newRig(t, smallSpec(), nil)
	if err := r.e.Handoff(9999, r.b.APs[0], false); err == nil {
		t.Fatal("handoff of unknown host accepted")
	}
	if err := r.e.Handoff(r.b.Hosts[0], r.b.AGs[0], false); err == nil {
		t.Fatal("handoff to non-AP accepted")
	}
	// Handoff to the same AP is a no-op.
	if err := r.e.Handoff(r.b.Hosts[0], r.e.H.APOf(r.b.Hosts[0]), false); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	runOnce := func() (uint64, float64) {
		sched := sim.NewScheduler()
		net := netsim.New(sched, sim.NewRNG(99))
		b, err := topology.Build(smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(1, DefaultConfig(), net, b.H)
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			at := sim.Time(10+i) * sim.Millisecond
			sched.At(at, func() { e.Submit(b.BRs[0], []byte("x")) })
		}
		if _, err := sched.Run(5 * sim.Second); err != nil {
			t.Fatal(err)
		}
		return e.Log.Delivered.Value(), e.Log.Latency.Mean()
	}
	d1, l1 := runOnce()
	d2, l2 := runOnce()
	if d1 != d2 || l1 != l2 {
		t.Fatalf("replay diverged: (%d,%v) vs (%d,%v)", d1, l1, d2, l2)
	}
}

func TestFigure1EndToEnd(t *testing.T) {
	sched := sim.NewScheduler()
	net := netsim.New(sched, sim.NewRNG(1))
	b, err := topology.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(1, DefaultConfig(), net, b.H)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		at := sim.Time(10+2*i) * sim.Millisecond
		sched.At(at, func() { e.Submit(b.BRs[0], []byte("fig1")) })
	}
	if _, err := sched.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if err := e.Log.Err(); err != nil {
		t.Fatal(err)
	}
	if e.Log.MinDelivered() != 30 {
		t.Fatalf("Figure-1 hosts delivered %d/30", e.Log.MinDelivered())
	}
}
