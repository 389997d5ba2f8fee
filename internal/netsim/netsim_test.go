package netsim

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/seq"
	"repro/internal/sim"
)

type recorder struct {
	got []struct {
		from seq.NodeID
		m    msg.Message
		at   sim.Time
	}
	sched *sim.Scheduler
}

func (r *recorder) Recv(from seq.NodeID, m msg.Message) {
	r.got = append(r.got, struct {
		from seq.NodeID
		m    msg.Message
		at   sim.Time
	}{from, m, r.sched.Now()})
}

func newPair(t *testing.T, p LinkParams) (*Network, *recorder, *recorder) {
	t.Helper()
	sched := sim.NewScheduler()
	net := New(sched, sim.NewRNG(1))
	a := &recorder{sched: sched}
	b := &recorder{sched: sched}
	net.Register(1, a)
	net.Register(2, b)
	net.Connect(1, 2, p)
	return net, a, b
}

func TestSendDelivery(t *testing.T) {
	net, _, b := newPair(t, LinkParams{Latency: 5 * sim.Millisecond})
	if !net.Send(1, 2, &msg.Heartbeat{From: 1}) {
		t.Fatal("Send failed")
	}
	if _, err := net.Scheduler().RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(b.got) != 1 {
		t.Fatalf("delivered %d, want 1", len(b.got))
	}
	if b.got[0].at != 5*sim.Millisecond {
		t.Fatalf("arrival at %v, want 5ms", b.got[0].at)
	}
	if b.got[0].from != 1 {
		t.Fatalf("from = %v", b.got[0].from)
	}
	st := net.Stats()
	if st.Sent != 1 || st.Delivered != 1 {
		t.Fatalf("stats %v", st)
	}
	if st.ByKind[msg.KindHeartbeat] != 1 {
		t.Fatal("ByKind not counted")
	}
}

func TestNoRoute(t *testing.T) {
	net, _, _ := newPair(t, DefaultWired)
	if net.Send(1, 99, &msg.Heartbeat{From: 1}) {
		t.Fatal("send to unknown node succeeded")
	}
	net.Register(3, &recorder{sched: net.Scheduler()})
	if net.Send(1, 3, &msg.Heartbeat{From: 1}) {
		t.Fatal("send without link succeeded")
	}
	if net.Stats().DroppedNoRoute != 2 {
		t.Fatalf("stats %v", net.Stats())
	}
}

func TestLinkDown(t *testing.T) {
	net, _, b := newPair(t, DefaultWired)
	net.SetLinkUp(1, 2, false)
	if net.Send(1, 2, &msg.Heartbeat{From: 1}) {
		t.Fatal("send over down link succeeded")
	}
	net.SetLinkUp(1, 2, true)
	net.Send(1, 2, &msg.Heartbeat{From: 1})
	if _, err := net.Scheduler().RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(b.got) != 1 {
		t.Fatalf("delivered %d", len(b.got))
	}
	if !net.Linked(1, 2) || net.Linked(1, 9) {
		t.Fatal("Linked wrong")
	}
}

func TestCrashRecover(t *testing.T) {
	net, _, b := newPair(t, DefaultWired)
	net.Crash(2)
	net.Send(1, 2, &msg.Heartbeat{From: 1})
	if _, err := net.Scheduler().RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(b.got) != 0 {
		t.Fatal("crashed node received")
	}
	// Crashed sender can't send either.
	net.Crash(1)
	if net.Send(1, 2, &msg.Heartbeat{From: 1}) {
		t.Fatal("crashed sender sent")
	}
	net.Recover(1)
	net.Recover(2)
	net.Send(1, 2, &msg.Heartbeat{From: 1})
	if _, err := net.Scheduler().RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(b.got) != 1 {
		t.Fatal("recovery did not restore delivery")
	}
}

func TestCrashDuringFlight(t *testing.T) {
	net, _, b := newPair(t, LinkParams{Latency: 10 * sim.Millisecond})
	net.Send(1, 2, &msg.Heartbeat{From: 1})
	net.Scheduler().After(5*sim.Millisecond, func() { net.Crash(2) })
	if _, err := net.Scheduler().RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(b.got) != 0 {
		t.Fatal("in-flight message delivered to node that crashed before arrival")
	}
}

func TestLoss(t *testing.T) {
	net, _, b := newPair(t, LinkParams{Latency: 1, Loss: 0.5})
	const n = 2000
	for i := 0; i < n; i++ {
		net.Send(1, 2, &msg.Heartbeat{From: 1})
	}
	if _, err := net.Scheduler().RunAll(); err != nil {
		t.Fatal(err)
	}
	got := len(b.got)
	if got < n*4/10 || got > n*6/10 {
		t.Fatalf("50%% loss delivered %d/%d", got, n)
	}
	st := net.Stats()
	if st.DroppedLoss+st.Delivered != n {
		t.Fatalf("loss accounting: %v", st)
	}
}

func TestJitterBoundsAndFIFO(t *testing.T) {
	net, _, b := newPair(t, LinkParams{Latency: 10 * sim.Millisecond, Jitter: 5 * sim.Millisecond})
	const n = 200
	for i := 0; i < n; i++ {
		net.Send(1, 2, &msg.Heartbeat{From: 1})
	}
	if _, err := net.Scheduler().RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(b.got) != n {
		t.Fatalf("delivered %d", len(b.got))
	}
	var prev sim.Time
	for _, g := range b.got {
		if g.at < 10*sim.Millisecond || g.at > 15*sim.Millisecond {
			t.Fatalf("arrival %v outside [10ms,15ms]", g.at)
		}
		if g.at < prev {
			t.Fatal("FIFO violated")
		}
		prev = g.at
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// 1000 B/s, 100-byte messages: each takes 100ms to serialize.
	sched := sim.NewScheduler()
	net := New(sched, sim.NewRNG(1))
	b := &recorder{sched: sched}
	net.Register(1, &recorder{sched: sched})
	net.Register(2, b)
	net.Connect(1, 2, LinkParams{Latency: 0, Bandwidth: 1000})
	payload := make([]byte, 100-29) // Data wire overhead is 29+4 bytes
	d := &msg.Data{Group: 1, SourceNode: 1, LocalSeq: 1, Payload: payload}
	size := d.WireSize()
	net.Send(1, 2, d)
	net.Send(1, 2, d)
	if _, err := sched.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(b.got) != 2 {
		t.Fatalf("delivered %d", len(b.got))
	}
	per := sim.Time(int64(size) * int64(sim.Second) / 1000)
	if b.got[0].at != per {
		t.Fatalf("first arrival %v, want %v", b.got[0].at, per)
	}
	if b.got[1].at != 2*per {
		t.Fatalf("second arrival %v, want %v (serialized after first)", b.got[1].at, 2*per)
	}
}

func TestDirectedAsymmetry(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched, sim.NewRNG(1))
	a := &recorder{sched: sched}
	b := &recorder{sched: sched}
	net.Register(1, a)
	net.Register(2, b)
	net.ConnectDirected(1, 2, LinkParams{Latency: 1 * sim.Millisecond})
	net.ConnectDirected(2, 1, LinkParams{Latency: 9 * sim.Millisecond})
	net.Send(1, 2, &msg.Heartbeat{From: 1})
	net.Send(2, 1, &msg.Heartbeat{From: 2})
	if _, err := sched.RunAll(); err != nil {
		t.Fatal(err)
	}
	if b.got[0].at != 1*sim.Millisecond || a.got[0].at != 9*sim.Millisecond {
		t.Fatalf("asymmetric latencies wrong: %v %v", b.got[0].at, a.got[0].at)
	}
	p, ok := net.LinkParamsOf(2, 1)
	if !ok || p.Latency != 9*sim.Millisecond {
		t.Fatal("LinkParamsOf")
	}
}

func TestDisconnect(t *testing.T) {
	net, _, _ := newPair(t, DefaultWired)
	net.Disconnect(1, 2)
	if net.Send(1, 2, &msg.Heartbeat{From: 1}) {
		t.Fatal("send over removed link")
	}
}

func TestTraceHook(t *testing.T) {
	net, _, _ := newPair(t, DefaultWired)
	var traced int
	net.Trace = func(at sim.Time, from, to seq.NodeID, m msg.Message) { traced++ }
	net.Send(1, 2, &msg.Heartbeat{From: 1})
	if _, err := net.Scheduler().RunAll(); err != nil {
		t.Fatal(err)
	}
	if traced != 1 {
		t.Fatalf("traced %d", traced)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []sim.Time {
		sched := sim.NewScheduler()
		net := New(sched, sim.NewRNG(42))
		b := &recorder{sched: sched}
		net.Register(1, &recorder{sched: sched})
		net.Register(2, b)
		net.Connect(1, 2, LinkParams{Latency: 1 * sim.Millisecond, Jitter: 2 * sim.Millisecond, Loss: 0.2})
		for i := 0; i < 100; i++ {
			net.Send(1, 2, &msg.Heartbeat{From: 1})
		}
		if _, err := sched.RunAll(); err != nil {
			t.Fatal(err)
		}
		out := make([]sim.Time, len(b.got))
		for i, g := range b.got {
			out[i] = g.at
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay diverged: %d vs %d deliveries", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRegisterPanicsOnNone(t *testing.T) {
	net, _, _ := newPair(t, DefaultWired)
	defer func() {
		if recover() == nil {
			t.Fatal("Register(None) did not panic")
		}
	}()
	net.Register(seq.None, nil)
}

func TestHandlerFunc(t *testing.T) {
	called := false
	h := HandlerFunc(func(from seq.NodeID, m msg.Message) { called = true })
	h.Recv(1, &msg.Heartbeat{})
	if !called {
		t.Fatal("HandlerFunc not invoked")
	}
}

func TestStatsString(t *testing.T) {
	net, _, _ := newPair(t, DefaultWired)
	if net.Stats().String() == "" {
		t.Fatal("empty stats string")
	}
}
