package core

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/topology"
)

// wireTableConfig is DefaultConfig with the real-socket deployment's
// table settings (wire.protocolConfig): a 256-entry token cap over the
// last 1,024 globals and a 4,096-slot retained window below the front.
func wireTableConfig(c *Config) {
	c.CompactAbove = 256
	c.CompactKeep = 1024
	c.RetainExtra = 4096
}

// TestAssignTableHoldsInFlight: the cumulative assignment table follows
// the delivery front, not the retained window. Many low-rate sources
// give about one entry per message — the worst case, where a table that
// compacts at the MQ's valid front holds RetainExtra entries — and every
// top-ring node's table must stay within its undelivered window plus a
// ring's worth of slack throughout the run.
func TestAssignTableHoldsInFlight(t *testing.T) {
	spec := topology.Spec{BRs: 8, AGRings: 1, AGSize: 1, APsPerAG: 1, MHsPerAP: 1}
	r := newRig(t, spec, wireTableConfig)
	const count = 150
	// One message per source per ~rotation: each token visit assigns a
	// one-message run, so each message is its own entry.
	r.pump(r.b.BRs, count, 20*sim.Millisecond, 10*sim.Millisecond)

	slack := len(r.b.BRs)
	worst, samples := 0, 0
	var sample func()
	sample = func() {
		for _, br := range r.b.BRs {
			n := r.e.NE(br)
			if n.assign == nil || n.assign.Len() == 0 {
				continue
			}
			var last seq.Pair
			n.assign.ForEachEntry(func(p seq.Pair) { last = p })
			window := 0
			if f := n.mq.Front(); seq.GlobalSeq(last.Global.Max) > f {
				window = int(seq.GlobalSeq(last.Global.Max) - f)
			}
			if over := n.assign.Len() - window; over > worst {
				worst = over
			}
			if n.assign.Len() > window+slack {
				t.Fatalf("t=%v BR %v: assignment table holds %d entries, undelivered window %d (+%d slack)",
					r.sched.Now(), br, n.assign.Len(), window, slack)
			}
		}
		samples++
		if r.sched.Now() < 4*sim.Second {
			r.sched.After(5*sim.Millisecond, sample)
		}
	}
	r.sched.At(10*sim.Millisecond, sample)
	r.run(10 * sim.Second)
	r.assertClean(uint64(count * len(r.b.BRs)))

	// The bound must bite: the run assigned far more globals than it
	// lets any table hold.
	n0 := r.e.NE(r.b.BRs[0])
	if assigned := int(n0.newToken.NextGlobalSeq) - 1; assigned < 8*(slack+worst) {
		t.Fatalf("only %d globals assigned: the bound %d is not tested", assigned, slack+worst)
	}
	t.Logf("%d samples; worst excess over the undelivered window: %d entries", samples, worst)
}

// TestLateBodyAfterCompaction: a body whose global is at or below the
// delivery front and whose assignment entry has been compacted must be
// consumed like a stamped duplicate, never left to block its source
// queue. A joiner takes its baseline with JumpTo, so the first token it
// absorbs holds assignments below its front, and compaction drops them
// at once. The joiner's predecessor then retransmits an old body from
// before the baseline (the joiner has no queue for that source yet):
// the queue must consume it, order the source's later messages, and
// acknowledge them upstream.
func TestLateBodyAfterCompaction(t *testing.T) {
	cfg := wireLikeConfig()
	wireTableConfig(&cfg)
	e, sched, got := flatRing(t, cfg, []seq.NodeID{1, 2}, 3)
	// One message per entry, more entries than the token's 256 cap: the
	// token the joiner first absorbs no longer carries source 1's first
	// assignment.
	submitEvery(t, e, sched, 1, 200, sim.Millisecond, 10*sim.Millisecond)
	submitEvery(t, e, sched, 2, 200, sim.Millisecond, 10*sim.Millisecond)
	run(t, sched, 3*sim.Second)
	if len(got[1]) != 400 || len(got[2]) != 400 {
		t.Fatalf("steady members delivered %d/%d, want 400 each", len(got[1]), len(got[2]))
	}
	if _, _, ok := e.NE(1).newToken.Table.GlobalFor(1, 1); ok {
		t.Fatal("the token still carries source 1's first assignment; the test needs more entries")
	}

	baseline := e.NE(1).mq.Front()
	j := e.NE(3)
	j.JumpTo(baseline)
	if err := e.H.InsertIntoRing(3, 2); err != nil {
		t.Fatal(err)
	}
	e.OnTopologyChanged(1, 2, 3)
	// Source 1's first message, long delivered, arrives again from the
	// joiner's predecessor.
	j.handleWQData(2, &msg.Data{Group: 1, SourceNode: 1, LocalSeq: 1, Payload: []byte("m")})
	submitEvery(t, e, sched, 1, 40, sched.Now()+10*sim.Millisecond, sim.Millisecond)
	submitEvery(t, e, sched, 2, 40, sched.Now()+10*sim.Millisecond, sim.Millisecond)
	run(t, sched, 2*sim.Second)

	if len(got[1]) != 480 || len(got[2]) != 480 {
		t.Fatalf("steady members delivered %d/%d, want 480 each", len(got[1]), len(got[2]))
	}
	if len(got[3]) != 80 {
		t.Fatalf("joiner delivered %d, want the 80 messages after its baseline", len(got[3]))
	}
	for i, d := range got[3] {
		if want := baseline + seq.GlobalSeq(i) + 1; d.GlobalSeq != want {
			t.Fatalf("joiner delivery %d is g=%d, want %d", i, d.GlobalSeq, want)
		}
	}
	sq := j.wq.ForSource(1)
	if sq.Len() != 0 || sq.MaxOrdered() != 240 {
		t.Fatalf("joiner's source-1 queue holds %d bodies, ordered through %d; want 0 and 240",
			sq.Len(), sq.MaxOrdered())
	}
	if cum := sq.CumReceived(); cum != 240 {
		t.Fatalf("joiner acknowledges source 1 through %d, want 240", cum)
	}
}
