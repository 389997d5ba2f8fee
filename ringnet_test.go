package ringnet

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/msg"
	"repro/internal/netsim"
)

func TestNewSimAndRun(t *testing.T) {
	x, err := NewSim(Config{Topology: Spec{BRs: 3, AGRings: 1, AGSize: 2, APsPerAG: 1, MHsPerAP: 2}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(x.Sources()) != 3 || len(x.APs()) != 2 || len(x.Hosts()) != 4 {
		t.Fatalf("accessors: %d/%d/%d", len(x.Sources()), len(x.APs()), len(x.Hosts()))
	}
	for i := 0; i < 20; i++ {
		x.SubmitAt(Time(10+i)*Millisecond, x.Sources()[0], []byte("api"))
	}
	if _, err := x.RunQuiet(100*Millisecond, 30*Second); err != nil {
		t.Fatal(err)
	}
	if err := x.CheckOrder(); err != nil {
		t.Fatal(err)
	}
	if x.Engine.Log.MinDelivered() != 20 {
		t.Fatalf("MinDelivered = %d", x.Engine.Log.MinDelivered())
	}
}

// TestNewSimHeldHeapBounded guards what a freshly built simulation
// holds, on the benchmark's sim_mobile hierarchy (40 NEs, 48 MHs). Each
// NE's MQ and every other per-entity buffer must be sized by what it
// holds, not by its cap: allocating all MaxNo MQ slots up front costs
// 10.6 MB here (about 0.2 MB without), so an eager per-entity
// allocation cannot creep back unnoticed under a 1 MB bound.
func TestNewSimHeldHeapBounded(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	x, err := NewSim(Config{Topology: Spec{BRs: 4, AGRings: 4, AGSize: 3, APsPerAG: 2, MHsPerAP: 2}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(x)
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("NewSim(sim_mobile spec) holds %d B", held)
	if held >= 1<<20 {
		t.Fatalf("a new sim_mobile simulation holds %d B of heap, want < 1 MB", held)
	}
}

// TestOracleHeldHeapPerMessage guards what the simulator's delivery
// oracle (Engine.Log) holds on the benchmark's sim_mobile workload. Run
// at 1x and 8x virtual length, it must grow by less than 4 B per extra
// message: it keeps only the window above its horizon (the slowest
// host, held at Engine.joinFloor), a page or two at quiescence, and
// nothing per message or per delivery. Keeping a send time per message
// costs 8 B, a content entry too 24 B, and an exact latency sample (8 B
// per delivery, so 384 B per message to 48 hosts) with two maps keyed
// per message about 540 B.
func TestOracleHeldHeapPerMessage(t *testing.T) {
	held := func(virtualS int) (oracle int64, msgs uint64) {
		wireless := LinkParams{Latency: 2 * Millisecond}
		x, err := NewSim(Config{Topology: Spec{BRs: 4, AGRings: 4, AGSize: 3, APsPerAG: 2, MHsPerAP: 2}, Seed: 1000, Wireless: &wireless})
		if err != nil {
			t.Fatal(err)
		}
		tg := x.NewTrafficGroup(x.Sources(), 64)
		tg.CBR(50*Millisecond, Second/500, Millisecond, 500*virtualS)
		mover := x.NewMover(mobility.Config{MeanDwell: 2 * Second, Reserve: true})
		mover.Start(x.Hosts())
		if _, err := x.RunQuiet(250*Millisecond, Time(virtualS+600)*Second); err != nil {
			t.Fatal(err)
		}
		mover.Stop()
		if err := x.CheckOrder(); err != nil {
			t.Fatal(err)
		}
		msgs = tg.Sent()
		if d, want := x.Engine.Log.Delivered.Value(), msgs*uint64(len(x.Hosts())); d != want {
			t.Fatalf("%d s: delivered %d of %d", virtualS, d, want)
		}
		var with, without runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&with)
		x.Engine.Log = nil
		runtime.GC()
		runtime.ReadMemStats(&without)
		runtime.KeepAlive(x)
		return int64(with.HeapAlloc) - int64(without.HeapAlloc), msgs
	}
	o1, m1 := held(1)
	o8, m8 := held(8)
	per := float64(o8-o1) / float64(m8-m1)
	t.Logf("oracle holds %d B after %d messages, %d B after %d: %.1f B per extra message", o1, m1, o8, m8, per)
	if per >= 4 {
		t.Fatalf("the delivery oracle holds %.1f B per extra message, want < 4", per)
	}
}

func TestNewSimFigure1(t *testing.T) {
	x, err := NewSim(Config{Figure1: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if x.Engine.H.TopRing().Len() != 3 {
		t.Fatal("figure-1 top ring")
	}
}

func TestNewSimInvalidSpec(t *testing.T) {
	if _, err := NewSim(Config{Topology: Spec{BRs: 0}}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestSubmitNowAndMembership(t *testing.T) {
	x, err := NewSim(Config{
		Topology:   Spec{BRs: 3, AGRings: 1, AGSize: 2, APsPerAG: 1, MHsPerAP: 1},
		Seed:       3,
		Membership: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if x.Members == nil {
		t.Fatal("membership manager missing")
	}
	if err := x.Submit(x.Sources()[0], []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := x.Run(2 * Second); err != nil {
		t.Fatal(err)
	}
	if err := x.CheckOrder(); err != nil {
		t.Fatal(err)
	}
}

func TestHandoffAndMembershipAPI(t *testing.T) {
	x, err := NewSim(Config{Topology: Spec{BRs: 3, AGRings: 1, AGSize: 2, APsPerAG: 2, MHsPerAP: 1}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := x.Hosts()[0]
	if err := x.Handoff(h, x.APs()[1], true); err != nil {
		t.Fatal(err)
	}
	if err := x.AddMember(HostID(999), x.APs()[2]); err != nil {
		t.Fatal(err)
	}
	x.RemoveMember(HostID(999))
	x.Fail(x.Sources()[2])
	x.Recover(x.Sources()[2])
	if err := x.Run(1 * Second); err != nil {
		t.Fatal(err)
	}
}

// failRun is one run of a failure scenario: what it put on the network,
// its control report and each host's delivery-order digest.
type failRun struct {
	net    netsim.Stats
	ctrl   ControlReport
	hashes map[HostID]uint64
}

// runFailScenario kills the fourth border router mid-stream under the
// membership plane (the tokenloss example): the top ring is repaired,
// every hop to the dead router is retargeted, and the token may be
// regenerated.
func runFailScenario(t *testing.T) failRun {
	t.Helper()
	x, err := NewSim(Config{Topology: Spec{BRs: 4, AGRings: 2, AGSize: 2, APsPerAG: 1, MHsPerAP: 2}, Seed: 99, Membership: true})
	if err != nil {
		t.Fatal(err)
	}
	hashes := make(map[HostID]*metrics.OrderHash)
	for _, h := range x.Hosts() {
		oh := metrics.NewOrderHash()
		hashes[h] = oh
		if err := x.OnDeliver(h, func(g GlobalSeq, src NodeID, _ []byte) { oh.Note(g, src, 0) }); err != nil {
			t.Fatal(err)
		}
	}
	x.NewTrafficGroup(x.Sources()[:2], 64).CBR(50*Millisecond, 4*Millisecond, 2*Millisecond, 500)
	x.Sched.At(300*Millisecond, func() { x.Fail(x.Sources()[3]) })
	if _, err := x.RunQuiet(250*Millisecond, 120*Second); err != nil {
		t.Fatal(err)
	}
	if err := x.CheckOrder(); err != nil {
		t.Fatal(err)
	}
	r := failRun{net: x.Net.Stats(), ctrl: x.ControlReport(), hashes: make(map[HostID]uint64)}
	for h, oh := range hashes {
		r.hashes[h] = oh.Sum64()
	}
	return r
}

// TestFailRunRepeatsForItsSeed: a run that fails a node, and so
// retargets hops and repairs the ring, is as deterministic per seed as a
// fault-free one. Two runs in one process must agree on every network
// counter, the control report and every host's delivery order.
func TestFailRunRepeatsForItsSeed(t *testing.T) {
	a, b := runFailScenario(t), runFailScenario(t)
	if !reflect.DeepEqual(a.net, b.net) {
		t.Errorf("network stats differ between runs:\n%+v\n%+v", a.net, b.net)
	}
	if a.ctrl != b.ctrl {
		t.Errorf("control reports differ between runs:\n%+v\n%+v", a.ctrl, b.ctrl)
	}
	if !reflect.DeepEqual(a.hashes, b.hashes) {
		t.Errorf("delivery orders differ between runs:\n%v\n%v", a.hashes, b.hashes)
	}
}

// plantDivergence relays one host's downlink and hands it its nth
// distinct data message with another local, as a receiver that
// delivered the wrong content would.
type plantDivergence struct {
	m    *core.MH
	n    int
	seen map[GlobalSeq]bool
	at   GlobalSeq
}

func (p *plantDivergence) Recv(from NodeID, m msg.Message) {
	if d, ok := m.(*msg.Data); ok {
		if !p.seen[d.GlobalSeq] {
			p.seen[d.GlobalSeq] = true
			if len(p.seen) == p.n {
				p.at = d.GlobalSeq
			}
		}
		if d.GlobalSeq == p.at {
			c := *d
			c.LocalSeq += 1000
			m = &c
		}
	}
	p.m.Recv(from, m)
}

// TestJoinerDivergenceNamedAtItsGlobal plants a wrong delivery at a host
// that joins mid-stream, at an active AP and at a virgin one (whose
// stream starts at a Jump baseline), and requires the oracle to name
// that global: the joiner holds the horizon at its start, so what it
// delivers is still checked against every other host.
func TestJoinerDivergenceNamedAtItsGlobal(t *testing.T) {
	for _, c := range []struct {
		name     string
		perAP    int
		joinAt   int
		virginAP bool
	}{
		{name: "active AP", perAP: 1, joinAt: 0},
		{name: "virgin AP", perAP: 0, joinAt: 3, virginAP: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			x, err := NewSim(Config{Topology: Spec{BRs: 3, AGRings: 1, AGSize: 2, APsPerAG: 2, MHsPerAP: c.perAP}, Seed: 6})
			if err != nil {
				t.Fatal(err)
			}
			if c.perAP == 0 {
				for i, h := range []HostID{1, 2} {
					if err := x.AddMember(h, x.APs()[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
			g := x.NewTrafficGroup(x.Sources()[:2], 16)
			g.CBR(10*Millisecond, 2*Millisecond, Millisecond, 1500)
			joiner := HostID(999)
			plant := &plantDivergence{n: 10, seen: make(map[GlobalSeq]bool)}
			x.Sched.At(1500*Millisecond, func() {
				if err := x.AddMember(joiner, x.APs()[c.joinAt]); err != nil {
					t.Error(err)
					return
				}
				plant.m = x.Engine.MHOf(joiner)
				x.Engine.Net.Register(core.MHNodeID(joiner), plant)
			})
			if _, err := x.RunQuiet(100*Millisecond, 60*Second); err != nil {
				t.Fatal(err)
			}
			if plant.at <= 1024 {
				t.Fatalf("planted at global %d, want one past the first page", plant.at)
			}
			if m := x.Engine.MHOf(joiner); m.Jumped != c.virginAP {
				t.Fatalf("joiner Jumped = %v, want %v", m.Jumped, c.virginAP)
			}
			err = x.CheckOrder()
			if err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("global seq %d ", plant.at)) {
				t.Fatalf("divergence planted at global %d: got %v", plant.at, err)
			}
		})
	}
}

// TestLeaverDoesNotPinOracle removes a host mid-stream: once the run has
// quiesced the oracle holds nothing, where a leaver still counted would
// pin every message after its last delivery.
func TestLeaverDoesNotPinOracle(t *testing.T) {
	x, err := NewSim(Config{Topology: Spec{BRs: 3, AGRings: 1, AGSize: 2, APsPerAG: 1, MHsPerAP: 2}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	g := x.NewTrafficGroup(x.Sources(), 16)
	g.CBR(10*Millisecond, 2*Millisecond, Millisecond, 1000)
	gone := x.Hosts()[0]
	x.Sched.At(500*Millisecond, func() { x.RemoveMember(gone) })
	if _, err := x.RunQuiet(100*Millisecond, 60*Second); err != nil {
		t.Fatal(err)
	}
	if err := x.CheckOrder(); err != nil {
		t.Fatal(err)
	}
	last := x.Engine.Log.LastAt(uint32(gone))
	if after := 3000 - last; after < 2048 {
		t.Fatalf("the leaver stopped at global %d: only %d messages follow it", last, after)
	}
	if n := x.Engine.Log.Settle(); n != 0 {
		t.Fatalf("the quiesced oracle holds %d entries, want 0", n)
	}
}

func TestTrafficGroupIntegration(t *testing.T) {
	x, err := NewSim(Config{Topology: Spec{BRs: 4, AGRings: 1, AGSize: 2, APsPerAG: 1, MHsPerAP: 1}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	g := x.NewTrafficGroup(x.Sources()[:2], 32)
	g.CBR(10*Millisecond, 5*Millisecond, Millisecond, 30)
	if _, err := x.RunQuiet(100*Millisecond, 30*Second); err != nil {
		t.Fatal(err)
	}
	if g.Sent() != 60 {
		t.Fatalf("sent %d", g.Sent())
	}
	if x.Engine.Log.MinDelivered() != 60 {
		t.Fatalf("delivered %d", x.Engine.Log.MinDelivered())
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{ID: "T", Title: "demo", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddNote("n=%d", 5)
	out := tab.String()
	for _, want := range []string{"== T: demo ==", "a", "bb", "note: n=5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

// Fast experiment smoke tests: the full parameter sweeps run under
// -bench; these verify each harness end-to-end at small scale.

func TestExperimentF1(t *testing.T) {
	tab, err := ExperimentF1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 5 {
		t.Fatalf("F1 rows: %d", len(tab.Rows))
	}
	found := false
	for _, r := range tab.Rows {
		if r[0] == "total order" && r[1] == "verified" {
			found = true
		}
	}
	if !found {
		t.Fatalf("F1 did not verify total order:\n%s", tab)
	}
}

func TestExperimentE9(t *testing.T) {
	tab, err := ExperimentE9()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("E9 rows: %d", len(tab.Rows))
	}
}

func TestExperimentE7(t *testing.T) {
	tab, err := ExperimentE7()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("E7 rows: %d", len(tab.Rows))
	}
}
