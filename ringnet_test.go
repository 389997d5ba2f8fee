package ringnet

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/mobility"
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
// at 1x and 4x virtual length, it must grow by less than 32 B per extra
// message: it keeps a send time and a content entry per message, 24 B,
// and nothing per delivery. An exact latency sample (8 B per delivery,
// so 384 B per message to 48 hosts) and two maps keyed per message held
// about 540 B per message here.
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
	o4, m4 := held(4)
	per := float64(o4-o1) / float64(m4-m1)
	t.Logf("oracle holds %d B after %d messages, %d B after %d: %.1f B per extra message", o1, m1, o4, m4, per)
	if per >= 32 {
		t.Fatalf("the delivery oracle holds %.1f B per extra message, want < 32", per)
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
