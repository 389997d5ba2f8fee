package wire

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/topology"
)

// substrateRig is node 1's outbox substrate for group 1 over a loopback
// transport pair, with peer 2 admitted and recording what it receives. The
// test goroutine plays the driver: it steps the scheduler itself.
type substrateRig struct {
	a, b  *Transport
	ob    *SharedOutbox
	sched *sim.Scheduler
	net   *outboxNet

	mu   sync.Mutex
	recv []msg.Message
}

func newSubstrateRig(t *testing.T, window sim.Time) *substrateRig {
	t.Helper()
	a, b := pairUp(t, Faults{}, Faults{})
	r := &substrateRig{a: a, b: b, sched: sim.NewScheduler()}
	r.listen(t, 1)
	b.Start()
	a.Start()
	r.ob = NewSharedOutbox(a, window)
	r.net = newOutboxNet(r.sched, r.ob, 1, 1)
	if _, ok := r.net.admit(2, b.LocalAddr().String()); !ok {
		t.Fatal("admitting peer 2 failed")
	}
	return r
}

// listen makes peer 2 record what it receives for group, in arrival order.
func (r *substrateRig) listen(t *testing.T, group uint32) {
	t.Helper()
	if err := r.b.AddPeer(group, 1, r.a.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	register(t, r.b, group, GroupHooks{Handler: func(_ seq.NodeID, ms []msg.Message) {
		r.mu.Lock()
		r.recv = append(r.recv, ms...)
		r.mu.Unlock()
	}})
}

// datagrams returns how many datagrams node 1 has sent peer 2.
func (r *substrateRig) datagrams() uint64 { return r.a.Stats().Peers[2].SentDatagrams }

// shard returns group 1's unflushed messages for peer 2.
func (r *substrateRig) shard() []msg.Message { return pending(r.ob, 1, 2) }

// pending returns group's unflushed messages for peer to.
func pending(o *SharedOutbox, group uint32, to seq.NodeID) []msg.Message {
	if b := o.boxes[to]; b != nil {
		for _, s := range b.secs {
			if s.Group == group {
				return slices.Clone(s.Msgs)
			}
		}
	}
	return nil
}

// received waits until peer 2 has been handed n messages.
func (r *substrateRig) received(t *testing.T, n int) []msg.Message {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		r.mu.Lock()
		got := append([]msg.Message(nil), r.recv...)
		r.mu.Unlock()
		if len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer received %d/%d", len(got), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func dataMsg(local seq.LocalSeq) *msg.Data {
	return &msg.Data{Group: 1, SourceNode: 1, LocalSeq: local, Payload: []byte("payload")}
}

// TestSubstrateAccountsLikeNetsim: one scripted run of sends — data, acks,
// a token, a heartbeat, a burst, one to an id nobody exposed, one to self —
// produces the same ControlReport through the simulator's network with
// zero-latency links and through the wire substrate.
func TestSubstrateAccountsLikeNetsim(t *testing.T) {
	script := func(n core.Network) {
		tok := seq.NewToken(1)
		if _, err := tok.Assign(1, 1, 1, 5); err != nil {
			t.Fatal(err)
		}
		n.Send(1, 2, dataMsg(1))
		n.Send(1, 2, &msg.Ack{Group: 1, From: 1, Source: 2, CumLocal: 3})
		n.Send(1, 2, &msg.Ack{Group: 1, From: 1, CumGlobal: 9, Batch: []msg.SourceCum{{Source: 2, Cum: 4}}})
		n.Send(1, 2, &msg.TokenMsg{From: 1, Token: tok})
		n.Send(1, 2, &msg.Heartbeat{From: 1})
		n.SendBurst(1, 2, []msg.Message{dataMsg(2), dataMsg(3), &msg.Skip{Group: 1, From: 1, Range: seq.Range{Min: 5, Max: 6}}})
		n.Send(1, 3, &msg.Nack{Group: 1, From: 1, Range: seq.Range{Min: 1, Max: 2}})
		n.Send(1, 1, dataMsg(4))
	}
	report := func(n core.Network) metrics.ControlReport {
		script(n)
		return core.NewEngine(1, core.DefaultConfig(), n, topology.New()).ControlReport()
	}

	simNet := netsim.New(sim.NewScheduler(), sim.NewRNG(1))
	sink := netsim.HandlerFunc(func(seq.NodeID, msg.Message) {})
	simNet.Register(1, sink)
	simNet.Register(2, sink)
	simNet.Connect(1, 2, netsim.LinkParams{})
	want := report(simNet)

	r := newSubstrateRig(t, 0)
	got := report(r.net)
	if got != want {
		t.Fatalf("wire substrate reports %+v, simulator %+v", got, want)
	}
	if st := r.net.Stats(); st.Sent != 10 || st.DataMsgs != 3 || st.CtrlMsgs != 5 || st.ByKind[msg.KindNack] != 1 {
		t.Fatalf("script not accounted as written: %+v", st)
	}
}

// TestSubstrateSendIsAnEnqueue: a send to an exposed peer is in the
// peer's shard when Send returns, and costs the scheduler exactly
// one new event — the outbox flush that carries it to the socket.
func TestSubstrateSendIsAnEnqueue(t *testing.T) {
	r := newSubstrateRig(t, sim.Millisecond)
	pending := r.sched.Len()
	m := dataMsg(1)
	if !r.net.Send(1, 2, m) {
		t.Fatal("send to an exposed peer reported not entered")
	}
	if got := r.shard(); len(got) != 1 || got[0] != msg.Message(m) {
		t.Fatalf("shard holds %v right after Send, want the message itself", got)
	}
	if n := r.sched.Len(); n != pending+1 {
		t.Fatalf("send left %d new pending events, want 1 (the flush)", n-pending)
	}
	if _, err := r.sched.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := r.received(t, 1); got[0].(*msg.Data).LocalSeq != 1 {
		t.Fatalf("peer received %v", got[0])
	}
}

// TestSubstrateRetireDropsBacklog: retiring a peer discards the group's
// unflushed messages for it and the transport's reference to it, and
// later sends to it are dropped before the outbox — nothing reaches the
// transport, nothing counts as a send error.
func TestSubstrateRetireDropsBacklog(t *testing.T) {
	r := newSubstrateRig(t, sim.Millisecond)
	for l := seq.LocalSeq(1); l <= 3; l++ {
		r.net.Send(1, 2, dataMsg(l))
	}
	if n := len(r.shard()); n != 3 {
		t.Fatalf("backlog before retire = %d, want 3 (data waits for its window)", n)
	}
	r.net.retire(2)
	if n, b := len(r.shard()), r.ob.boxes[2].bytes; n != 0 || b != 0 {
		t.Fatalf("retire left %d messages / %d bytes in the box", n, b)
	}
	if hasPeer(r.a, 1, 2) {
		t.Fatal("retire left the transport's reference to the peer")
	}
	pending := r.sched.Len()
	if r.net.Send(1, 2, dataMsg(4)) {
		t.Fatal("send to a retired peer reported entered")
	}
	if len(r.shard()) != 0 || r.sched.Len() != pending {
		t.Fatal("send to a retired peer reached the outbox")
	}
	if _, err := r.sched.RunAll(); err != nil {
		t.Fatal(err)
	}
	if n := sentDatagrams(r.a.Stats()); n != 0 || r.ob.SendErrs() != 0 {
		t.Fatalf("retired peer got %d datagrams, outbox counted %d send errors", n, r.ob.SendErrs())
	}
	if st := r.net.Stats(); st.Sent != 4 || st.DataMsgs != 3 {
		t.Fatalf("accounting: %+v, want 4 sent of which 3 entered", st)
	}
}

// TestSubstratePeerFIFO: messages for one peer leave in the order they
// were sent, whether through Send or SendBurst.
func TestSubstratePeerFIFO(t *testing.T) {
	r := newSubstrateRig(t, sim.Millisecond)
	r.net.Send(1, 2, dataMsg(1))
	r.net.SendBurst(1, 2, []msg.Message{dataMsg(2), dataMsg(3), dataMsg(4)})
	r.net.Send(1, 2, dataMsg(5))
	inOrder := func(where string, ms []msg.Message) {
		t.Helper()
		if len(ms) != 5 {
			t.Fatalf("%s holds %d messages, want 5", where, len(ms))
		}
		for i, m := range ms {
			if l := m.(*msg.Data).LocalSeq; l != seq.LocalSeq(i+1) {
				t.Fatalf("%s position %d holds local %d", where, i, l)
			}
		}
	}
	inOrder("shard", r.shard())
	if _, err := r.sched.RunAll(); err != nil {
		t.Fatal(err)
	}
	inOrder("peer", r.received(t, 5))
}

// TestOutboxUrgentOvertakesWindow: an urgent message joining a windowed
// box flushes it at the end of the enqueuing event, and the window timer
// it overtook still fires on time and drains what arrived since.
func TestOutboxUrgentOvertakesWindow(t *testing.T) {
	r := newSubstrateRig(t, sim.Millisecond)
	r.sched.At(0, func() {
		r.net.Send(1, 2, dataMsg(1)) // arms the window: due at 1 ms
		r.net.Send(1, 2, &msg.Nack{Group: 1, From: 1, Range: seq.Range{Min: 1, Max: 2}})
	})
	r.sched.At(300*sim.Microsecond, func() { r.net.Send(1, 2, dataMsg(2)) })
	step := func(until sim.Time) {
		t.Helper()
		if _, err := r.sched.Run(until); err != nil {
			t.Fatal(err)
		}
	}

	step(0)
	if n, d := len(r.shard()), r.datagrams(); n != 0 || d != 1 {
		t.Fatalf("after the urgent event: %d pending, %d datagrams; want 0 and 1", n, d)
	}
	step(sim.Millisecond - 1)
	if n, d := len(r.shard()), r.datagrams(); n != 1 || d != 1 {
		t.Fatalf("inside the window: %d pending, %d datagrams; want 1 and 1", n, d)
	}
	step(sim.Millisecond)
	if n, d := len(r.shard()), r.datagrams(); n != 0 || d != 2 {
		t.Fatalf("at the overtaken window's end: %d pending, %d datagrams; want 0 and 2", n, d)
	}
	// The window the later message armed itself finds the box empty.
	if _, err := r.sched.RunAll(); err != nil {
		t.Fatal(err)
	}
	if d := r.datagrams(); d != 2 {
		t.Fatalf("%d datagrams in all, want 2", d)
	}
	got := r.received(t, 3)
	if l := got[2].(*msg.Data).LocalSeq; l != 2 {
		t.Fatalf("last message received is local %d, want 2", l)
	}
}

// TestOutboxGroupsShareADatagram: one peer's sections from several groups
// leave in one datagram, in the order the groups first enqueued, and
// Drop(group, to) takes out that group's section and bytes only.
func TestOutboxGroupsShareADatagram(t *testing.T) {
	r := newSubstrateRig(t, sim.Millisecond)
	r.listen(t, 2)
	r.listen(t, 3)
	kept := map[uint32][]seq.LocalSeq{2: {21, 22}, 1: {11, 12}}
	r.sched.At(0, func() {
		for _, e := range []struct {
			group uint32
			local seq.LocalSeq
		}{{2, 21}, {1, 11}, {3, 31}, {2, 22}, {1, 12}} {
			r.ob.Enqueue(r.sched, e.group, 2, dataMsg(e.local))
		}
	})
	if _, err := r.sched.Run(0); err != nil {
		t.Fatal(err)
	}
	r.ob.Drop(3, 2)
	if m := pending(r.ob, 3, 2); len(m) != 0 {
		t.Fatalf("Drop left group 3 holding %v", m)
	}
	want := 0
	for _, g := range []uint32{2, 1} {
		if got := len(pending(r.ob, g, 2)); got != len(kept[g]) {
			t.Fatalf("Drop(3) left group %d %d messages, want %d", g, got, len(kept[g]))
		}
		for _, l := range kept[g] {
			want += framedSize(dataMsg(l).WireSize())
		}
	}
	if b := r.ob.boxes[2].bytes; b != want {
		t.Fatalf("box holds %d bytes after Drop, want %d", b, want)
	}
	if _, err := r.sched.RunAll(); err != nil {
		t.Fatal(err)
	}
	got := r.received(t, 4)
	for i, l := range []seq.LocalSeq{21, 22, 11, 12} {
		if g := got[i].(*msg.Data).LocalSeq; g != l {
			t.Fatalf("position %d received local %d, want %d (group 2's section first)", i, g, l)
		}
	}
	if d := r.datagrams(); d != 1 {
		t.Fatalf("%d datagrams, want 1", d)
	}
	if st := r.b.Stats().Groups[3]; st.RecvMsgs != 0 {
		t.Fatalf("dropped group 3 still reached the peer: %+v", st)
	}
}
