package unordered

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/topology"
)

func rig(t *testing.T) (*sim.Scheduler, *Engine, *topology.Built) {
	t.Helper()
	sched := sim.NewScheduler()
	sched.MaxEvents = 50_000_000
	net := netsim.New(sched, sim.NewRNG(11))
	b, err := topology.Build(topology.Spec{BRs: 3, AGRings: 2, AGSize: 2, APsPerAG: 1, MHsPerAP: 2})
	if err != nil {
		t.Fatal(err)
	}
	e := New(DefaultConfig(), net, b.H)
	if err := e.Start(netsim.DefaultWired, netsim.LinkParams{Latency: 8 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	return sched, e, b
}

func TestUnorderedDelivery(t *testing.T) {
	sched, e, b := rig(t)
	for i := 0; i < 50; i++ {
		at := sim.Time(10+i*2) * sim.Millisecond
		for _, src := range []seq.NodeID{b.BRs[0], b.BRs[1]} {
			src := src
			sched.At(at, func() { e.Submit(src, []byte("u")) })
		}
	}
	if _, err := sched.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if err := e.Log.Err(); err != nil {
		t.Fatal(err)
	}
	if e.Log.MinDelivered() != 100 {
		t.Fatalf("MinDelivered = %d, want 100", e.Log.MinDelivered())
	}
	if e.Log.Latency.N() == 0 {
		t.Fatal("no latency samples")
	}
}

func TestUnorderedLowerLatencyThanTokenWait(t *testing.T) {
	// Remark 3: without ordering, latency is just the forwarding path.
	// On a 2ms-per-hop network with ~5 hops to the MH, mean latency
	// should sit well under 50ms.
	sched, e, b := rig(t)
	for i := 0; i < 100; i++ {
		at := sim.Time(10+i*3) * sim.Millisecond
		sched.At(at, func() { e.Submit(b.BRs[0], []byte("x")) })
	}
	if _, err := sched.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if err := e.Log.Err(); err != nil {
		t.Fatal(err)
	}
	if m := e.Log.Latency.Mean(); m > 0.05 {
		t.Fatalf("unordered mean latency %.4fs unexpectedly high", m)
	}
}

func TestUnorderedSubmitErrors(t *testing.T) {
	_, e, b := rig(t)
	if err := e.Submit(b.AGs[0], nil); err == nil {
		t.Fatal("non-top submit accepted")
	}
	if err := e.Submit(9999, nil); err == nil {
		t.Fatal("unknown submit accepted")
	}
}

func TestUnorderedFIFOUnderLoss(t *testing.T) {
	sched := sim.NewScheduler()
	sched.MaxEvents = 50_000_000
	net := netsim.New(sched, sim.NewRNG(11))
	b, err := topology.Build(topology.Spec{BRs: 3, AGRings: 1, AGSize: 2, APsPerAG: 1, MHsPerAP: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := New(DefaultConfig(), net, b.H)
	lossy := netsim.LinkParams{Latency: 2 * sim.Millisecond, Loss: 0.05}
	if err := e.Start(lossy, netsim.LinkParams{Latency: 8 * sim.Millisecond, Loss: 0.02}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		at := sim.Time(10+i*2) * sim.Millisecond
		sched.At(at, func() { e.Submit(b.BRs[0], []byte("l")) })
	}
	if _, err := sched.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if err := e.Log.Err(); err != nil {
		t.Fatalf("FIFO violated under loss: %v", err)
	}
	if e.Log.MinDelivered() != 60 {
		t.Fatalf("MinDelivered = %d, want 60", e.Log.MinDelivered())
	}
	if e.PeakWQ() == 0 {
		t.Fatal("peak WQ metric empty")
	}
}

func TestHostsHelper(t *testing.T) {
	_, e, b := rig(t)
	if len(e.Hosts()) != len(b.Hosts) {
		t.Fatalf("Hosts = %d, want %d", len(e.Hosts()), len(b.Hosts))
	}
}
