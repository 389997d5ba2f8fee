package core

import (
	"bytes"
	"testing"

	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// watchTokenHops runs every TokenMsg the simulator delivers through the
// wire codec and, for a delta, through the receiver's rebuild — just
// before the receiver sees the object the simulator hands over — and
// checks that what the wire would deliver is the sender's token, byte for
// byte. The simulator never rebuilds; this is the check that its deltas
// are ones the wire path would accept as the same token.
type hopWatch struct {
	whole, deltas, refused, swallowed int
}

func watchTokenHops(t *testing.T, r *rig) *hopWatch {
	w := &hopWatch{}
	r.net.Trace = func(_ sim.Time, from, to seq.NodeID, m msg.Message) {
		tm, ok := m.(*msg.TokenMsg)
		ne := r.e.NE(to)
		if !ok || ne == nil || ne.failed {
			return
		}
		enc := msg.Encode(tm)
		if len(enc) != tm.WireSize() {
			t.Fatalf("TokenMsg WireSize %d, encoded %d", tm.WireSize(), len(enc))
		}
		dec, err := msg.Decode(enc)
		if err != nil {
			t.Fatalf("decode token hop: %v", err)
		}
		got := dec.(*msg.TokenMsg).Token
		if tm.Base == nil {
			w.whole++
		} else {
			w.deltas++
			d := dec.(*msg.TokenMsg).Delta
			if ne.swallowsToken(d.Epoch, d.Hops) {
				// A courier resend of a delta this node already took
				// (its acknowledgement was lost): tokenOf re-acks it on
				// the header alone, as it is about to.
				w.swallowed++
				return
			}
			var why TokenResync
			if got, why = ne.rebuildToken(from, d); got == nil {
				w.refused++
				t.Logf("%v→%v: delta refused (%v)", from, to, why)
				return
			}
		}
		if !bytes.Equal(got.AppendWire(nil), tm.Token.AppendWire(nil)) {
			t.Fatalf("%v→%v: the wire would deliver %v, the sender holds %v", from, to, got.Table, tm.Token.Table)
		}
	}
	return w
}

// TestTokenHopsTravelAsDeltasTheWireRebuilds: on a ring with and without
// datagram loss, every hop after a member's first travels as a delta
// (retransmissions aside), and every delta rebuilds at its receiver into
// the sender's token — lost tokens and lost acknowledgements included.
func TestTokenHopsTravelAsDeltasTheWireRebuilds(t *testing.T) {
	for _, loss := range []float64{0, 0.03} {
		r := newRigLinks(t, benchShapeSpec(), nil, &netsim.LinkParams{Latency: sim.Millisecond, Loss: loss}, nil)
		w := watchTokenHops(t, r)
		r.pump([]seq.NodeID{r.b.BRs[0], r.b.BRs[2]}, 300, 2*sim.Millisecond, 10*sim.Millisecond)
		r.run(5 * sim.Second)
		r.assertClean(600)
		if w.refused != 0 || w.deltas < 10*w.whole {
			t.Fatalf("loss %.2f: %d deltas, %d whole, %d refused", loss, w.deltas, w.whole, w.refused)
		}
		t.Logf("loss %.2f: %d deltas, %d whole tokens", loss, w.deltas, w.whole)
	}
}

// TestTokenDeltaAcrossRingRepair: a top-ring member crashes mid-stream
// and the ring repairs around it (regenerating the token if it died with
// the member). The hop the repair re-links travels whole, and every delta
// still rebuilds into the sender's token.
func TestTokenDeltaAcrossRingRepair(t *testing.T) {
	r := newRig(t, smallSpec(), func(c *Config) { c.TokenLossThreshold = 100 * sim.Millisecond })
	w := watchTokenHops(t, r)
	r.pump([]seq.NodeID{r.b.BRs[0], r.b.BRs[1]}, 150, 2*sim.Millisecond, 10*sim.Millisecond)
	victim := r.b.BRs[2]
	r.sched.At(150*sim.Millisecond, func() {
		r.e.FailNode(victim)
		if _, _, err := r.e.H.RemoveFromRing(victim); err != nil {
			t.Errorf("ring repair: %v", err)
		}
		r.e.OnTopologyChanged(r.b.BRs[0], r.b.BRs[1])
	})
	r.sched.At(400*sim.Millisecond, func() { r.e.OnTokenLoss(r.b.BRs[0]) })
	r.sched.At(450*sim.Millisecond, func() { r.e.OnTokenLoss(r.b.BRs[1]) })
	r.run(5 * sim.Second)
	if err := r.e.Log.Err(); err != nil {
		t.Fatal(err)
	}
	if w.refused != 0 || w.deltas == 0 || w.whole <= len(r.b.BRs) {
		t.Fatalf("%d deltas, %d whole tokens, %d refused: the repair sent no whole token", w.deltas, w.whole, w.refused)
	}
	t.Logf("%d deltas, %d whole tokens", w.deltas, w.whole)
}

// TestRefusedDeltaIsNotAcknowledged drives a receiver with wire-decoded
// deltas: one cut from a base it does not hold is dropped without an
// acknowledgement (the sender's courier resends it, then the whole table) and
// counted; a duplicate is acknowledged and swallowed on its header alone;
// a good one is acknowledged and processed.
func TestRefusedDeltaIsNotAcknowledged(t *testing.T) {
	r := newRig(t, smallSpec(), nil)
	ne := r.e.NE(r.b.BRs[1])
	for ne.rxBase == nil && r.sched.Step() {
	}
	for ne.holding || ne.held != nil { // let it forward, so the next hop is news
		r.sched.Step()
	}
	r.e.Tel.TokenDeltaRefused[ResyncDigest] = &telemetry.Counter{}
	from, base := ne.rxBase.peer, &ne.rxBase.tok
	acks := func() uint64 { return r.net.Stats().ByKind[msg.KindTokenAck] }
	delta := func(base *seq.Token, hops uint64) *msg.TokenMsg {
		later := base.Clone()
		later.Hops = hops
		if _, err := later.Assign(from, from, later.Table.MaxAssignedLocal(from)+1, later.Table.MaxAssignedLocal(from)+1); err != nil {
			t.Fatal(err)
		}
		dec, err := msg.Decode(msg.Encode(&msg.TokenMsg{From: from, Token: later, Base: base}))
		if err != nil {
			t.Fatal(err)
		}
		return dec.(*msg.TokenMsg)
	}
	next := ne.stampHops + uint64(len(r.b.BRs))

	// A twin of the base: same version, one more high-water mark.
	twin := base.Clone()
	twin.Table.RestoreHighWater(99, 1)
	before := acks()
	ne.Recv(from, delta(twin, next))
	if acks() != before || ne.stampHops >= next {
		t.Fatal("a delta cut from another copy of the base was acknowledged or processed")
	}
	if got := r.e.Tel.TokenDeltaRefused[ResyncDigest].Value(); got != 1 {
		t.Fatalf("refusals counted %d, want 1", got)
	}

	good := delta(base, next)
	ne.Recv(from, good)
	if acks() != before+1 || ne.stampHops != next || ne.rxBase.tok.Hops != next {
		t.Fatalf("a good delta was not acknowledged and processed (stamp %d, base hop %d)", ne.stampHops, ne.rxBase.tok.Hops)
	}

	// The same delta again: its base is no longer the one held, but a
	// duplicate needs none — the header acknowledges and swallows it.
	destroys := ne.ctrTokenDestroys
	ne.Recv(from, good)
	if acks() != before+2 || ne.ctrTokenDestroys != destroys+1 {
		t.Fatal("a duplicate delta was not acknowledged and swallowed")
	}
}
