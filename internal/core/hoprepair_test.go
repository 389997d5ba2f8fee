package core

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// intercept re-registers node id's handler behind f, which sees every
// message delivered to the node and returns what to hand on (nil drops).
func intercept(r *rig, id seq.NodeID, f func(from seq.NodeID, m msg.Message) msg.Message) {
	ne := r.e.NE(id)
	r.net.Register(id, netsim.HandlerFunc(func(from seq.NodeID, m msg.Message) {
		if m = f(from, m); m != nil {
			ne.Recv(from, m)
		}
	}))
}

// TestWQHopGapRepairedInRoundTrips drops one unordered body on the hop
// from its source to the ring successor. The later bodies of the stream
// land past the hole, the successor's ack reports the gap, and the
// source resends the body at once: the hole fills within a few link round
// trips of the loss instead of at the 20 ms retransmission timeout.
func TestWQHopGapRepairedInRoundTrips(t *testing.T) {
	r := newRig(t, smallSpec(), nil)
	src := r.b.BRs[0]
	next := r.e.NE(src).view.Next
	const lost = seq.LocalSeq(20)
	var droppedAt, repairedAt sim.Time
	intercept(r, next, func(from seq.NodeID, m msg.Message) msg.Message {
		d, ok := m.(*msg.Data)
		if !ok || from != src || d.SourceNode != src || d.LocalSeq != lost || d.GlobalSeq != 0 {
			return m
		}
		switch {
		case droppedAt == 0:
			droppedAt = r.sched.Now()
			return nil
		case repairedAt == 0:
			repairedAt = r.sched.Now()
		}
		return m
	})
	r.pump([]seq.NodeID{src}, 100, sim.Millisecond, 10*sim.Millisecond)
	r.run(3 * sim.Second)
	r.assertClean(100)

	rtt := 2 * netsim.DefaultWired.Latency
	if droppedAt == 0 || repairedAt == 0 {
		t.Fatalf("body %d: dropped at %v, repaired at %v", lost, droppedAt, repairedAt)
	}
	if took := repairedAt - droppedAt; took > 3*rtt || took >= r.e.Cfg.Hop.RTO {
		t.Fatalf("the hole took %v to fill, want ≤ 3 link round trips (%v), well inside the %v RTO", took, 3*rtt, r.e.Cfg.Hop.RTO)
	}
	var repairs, timeouts uint64
	for _, s := range r.e.NE(src).wqSenders {
		repairs += s.Repairs
		timeouts += s.Retransmissions
	}
	if repairs == 0 || timeouts != 0 {
		t.Fatalf("source hop: %d gap repairs, %d timeouts; want the repair alone", repairs, timeouts)
	}
}

// TestLostTokenAckResendsTheDelta drops one TokenAck on a warm hop,
// with the receiver decoding every token hop as the wire does. The
// courier's first retransmission repeats the same delta; the receiver,
// which processed the original, swallows it on its header and
// acknowledges it again. Nothing is refused and no whole table is sent.
func TestLostTokenAckResendsTheDelta(t *testing.T) {
	// A timeout shorter than a rotation (three 2 ms hops), so the courier
	// resends before the token comes back around to replace the delivery.
	r := newRig(t, smallSpec(), func(c *Config) {
		c.Hop.RTO = 5 * sim.Millisecond
		c.AckDelay = sim.Millisecond
	})
	for _, why := range ReceiverResyncs {
		r.e.Tel.TokenDeltaRefused[why] = &telemetry.Counter{}
	}
	r.e.Tel.TokenFullSends[ResyncRetransmit] = &telemetry.Counter{}
	a := r.b.BRs[0]
	b := r.e.NE(a).view.Next
	var lostHops uint64
	var reacks int
	copies, deltas := map[uint64]int{}, map[uint64]int{}
	intercept(r, a, func(from seq.NodeID, m msg.Message) msg.Message {
		ta, ok := m.(*msg.TokenAck)
		if !ok || from != b {
			return m
		}
		if lostHops == 0 && r.sched.Now() > 100*sim.Millisecond {
			lostHops = ta.Hops
			return nil
		}
		if lostHops != 0 && ta.Hops == lostHops {
			reacks++
		}
		return m
	})
	intercept(r, b, func(from seq.NodeID, m msg.Message) msg.Message {
		tm, ok := m.(*msg.TokenMsg)
		if !ok || from != a {
			return m
		}
		dec, err := msg.Decode(msg.Encode(tm))
		if err != nil {
			t.Fatal(err)
		}
		copies[tm.Token.Hops]++
		if tm.Base != nil {
			deltas[tm.Token.Hops]++
		}
		return dec
	})
	r.pump([]seq.NodeID{a, r.b.BRs[1]}, 150, 2*sim.Millisecond, 10*sim.Millisecond)
	r.run(3 * sim.Second)
	r.assertClean(300)

	if lostHops == 0 {
		t.Fatal("no TokenAck was dropped")
	}
	if copies[lostHops] != 2 || deltas[lostHops] != 2 || reacks != 1 {
		t.Fatalf("hop %d, whose ack was lost: %d copies (%d deltas), %d re-acks; want 2 deltas and 1 re-ack",
			lostHops, copies[lostHops], deltas[lostHops], reacks)
	}
	for _, why := range ReceiverResyncs {
		if n := r.e.Tel.TokenDeltaRefused[why].Value(); n != 0 {
			t.Fatalf("%d deltas refused (%v)", n, why)
		}
	}
	if n := r.e.Tel.TokenFullSends[ResyncRetransmit].Value(); n != 0 {
		t.Fatalf("%d whole-table resends, want 0", n)
	}
}
