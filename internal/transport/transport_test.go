package transport

import (
	"fmt"
	"testing"

	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/seq"
	"repro/internal/sim"
)

type sink struct {
	got []msg.Message
}

func (s *sink) Recv(from seq.NodeID, m msg.Message) { s.got = append(s.got, m) }

func rig(loss float64) (*sim.Scheduler, *netsim.Network, *sink) {
	sched := sim.NewScheduler()
	net := netsim.New(sched, sim.NewRNG(7))
	s := &sink{}
	net.Register(1, &sink{})
	net.Register(2, s)
	net.Connect(1, 2, netsim.LinkParams{Latency: 1 * sim.Millisecond, Loss: loss})
	return sched, net, s
}

func TestSenderDeliversAndStopsOnAck(t *testing.T) {
	sched, net, s := rig(0)
	snd := NewSender(net, 1, 2, Config{RTO: 10 * sim.Millisecond, MaxRetries: 5})
	snd.Send(1, &msg.Heartbeat{From: 1})
	// Ack as soon as it arrives.
	sched.After(2*sim.Millisecond, func() { snd.Ack(1) })
	if _, err := sched.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(s.got) != 1 {
		t.Fatalf("delivered %d times, want exactly 1 (no spurious retransmit)", len(s.got))
	}
	if snd.Outstanding() != 0 || snd.Acked() != 1 {
		t.Fatalf("outstanding=%d acked=%d", snd.Outstanding(), snd.Acked())
	}
	if snd.Retransmissions != 0 {
		t.Fatalf("retransmissions = %d", snd.Retransmissions)
	}
}

func TestSenderRetransmitsUntilAck(t *testing.T) {
	sched, net, s := rig(0)
	// Break the link for the first 25ms: initial send lost, retransmits
	// succeed once the link heals.
	net.SetLinkUp(1, 2, false)
	snd := NewSender(net, 1, 2, Config{RTO: 10 * sim.Millisecond, MaxRetries: 10})
	snd.Send(1, &msg.Heartbeat{From: 1})
	sched.After(25*sim.Millisecond, func() { net.SetLinkUp(1, 2, true) })
	if _, err := sched.Run(40 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(s.got) == 0 {
		t.Fatal("message never delivered after link healed")
	}
	if snd.Retransmissions == 0 {
		t.Fatal("no retransmissions recorded")
	}
	snd.Ack(1)
	if _, err := sched.RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestSenderGiveUpAfterMaxRetries(t *testing.T) {
	sched, net, _ := rig(0)
	net.SetLinkUp(1, 2, false)
	snd := NewSender(net, 1, 2, Config{RTO: 5 * sim.Millisecond, MaxRetries: 3})
	var gaveUp []uint64
	snd.OnGiveUp = func(sn uint64) { gaveUp = append(gaveUp, sn) }
	snd.Send(1, &msg.Heartbeat{From: 1})
	if _, err := sched.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(gaveUp) != 1 || gaveUp[0] != 1 {
		t.Fatalf("gaveUp = %v", gaveUp)
	}
	if snd.Outstanding() != 0 {
		t.Fatal("abandoned message still outstanding")
	}
	if snd.Retransmissions != 3 {
		t.Fatalf("retransmissions = %d, want 3", snd.Retransmissions)
	}
}

func TestSenderCumulativeAck(t *testing.T) {
	sched, net, _ := rig(0)
	snd := NewSender(net, 1, 2, Config{RTO: 100 * sim.Millisecond, MaxRetries: 5})
	for i := uint64(1); i <= 5; i++ {
		snd.Send(i, &msg.Heartbeat{From: 1})
	}
	snd.Ack(3)
	if snd.Outstanding() != 2 {
		t.Fatalf("outstanding = %d, want 2", snd.Outstanding())
	}
	// Stale ack ignored.
	snd.Ack(2)
	if snd.Acked() != 3 {
		t.Fatal("ack regressed")
	}
	// Sends at or below the ack are ignored.
	snd.Send(3, &msg.Heartbeat{From: 1})
	if snd.Outstanding() != 2 {
		t.Fatal("stale send accepted")
	}
	// Duplicate send ignored.
	snd.Send(4, &msg.Heartbeat{From: 1})
	if snd.Outstanding() != 2 {
		t.Fatal("duplicate send accepted")
	}
	snd.Ack(5)
	if _, err := sched.RunAll(); err != nil {
		t.Fatal(err)
	}
	if snd.Outstanding() != 0 {
		t.Fatal("not drained")
	}
}

func TestSenderLossyLinkEventuallyDelivers(t *testing.T) {
	sched, net, s := rig(0.4)
	snd := NewSender(net, 1, 2, Config{RTO: 5 * sim.Millisecond, MaxRetries: 0}) // unbounded
	const n = 50
	for i := uint64(1); i <= n; i++ {
		snd.Send(i, &msg.Data{Group: 1, SourceNode: 1, LocalSeq: seq.LocalSeq(i), OrderingNode: 1, GlobalSeq: seq.GlobalSeq(i)})
	}
	// Receiver acks cumulatively by watching arrivals.
	seen := make(map[seq.GlobalSeq]bool)
	net.Register(2, netsim.HandlerFunc(func(from seq.NodeID, m msg.Message) {
		d := m.(*msg.Data)
		seen[d.GlobalSeq] = true
		s.got = append(s.got, m)
		cum := uint64(0)
		for seen[seq.GlobalSeq(cum+1)] {
			cum++
		}
		snd.Ack(cum)
	}))
	if _, err := sched.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("delivered %d/%d over lossy link", len(seen), n)
	}
	if snd.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", snd.Outstanding())
	}
}

func TestSenderRetarget(t *testing.T) {
	sched := sim.NewScheduler()
	net := netsim.New(sched, sim.NewRNG(7))
	s2, s3 := &sink{}, &sink{}
	net.Register(1, &sink{})
	net.Register(2, s2)
	net.Register(3, s3)
	net.Connect(1, 2, netsim.LinkParams{Latency: 1 * sim.Millisecond})
	net.Connect(1, 3, netsim.LinkParams{Latency: 1 * sim.Millisecond})
	net.Crash(2)
	snd := NewSender(net, 1, 2, Config{RTO: 10 * sim.Millisecond, MaxRetries: 100})
	snd.Send(1, &msg.Heartbeat{From: 1})
	sched.After(15*sim.Millisecond, func() { snd.Retarget(3) })
	sched.After(30*sim.Millisecond, func() { snd.Ack(1) })
	if _, err := sched.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(s3.got) == 0 {
		t.Fatal("retargeted message not delivered to new destination")
	}
	if snd.To() != 3 {
		t.Fatal("To not updated")
	}
	// Retarget to same destination is a no-op.
	snd.Retarget(3)
}

func TestSenderClose(t *testing.T) {
	sched, net, s := rig(0)
	snd := NewSender(net, 1, 2, Config{RTO: 5 * sim.Millisecond, MaxRetries: 5})
	snd.Send(1, &msg.Heartbeat{From: 1})
	snd.Close()
	snd.Send(2, &msg.Heartbeat{From: 1})
	if _, err := sched.RunAll(); err != nil {
		t.Fatal(err)
	}
	// Only the pre-close transmission arrives; no retransmissions.
	if len(s.got) != 1 {
		t.Fatalf("got %d messages after Close", len(s.got))
	}
}

func TestSenderDefaultRTO(t *testing.T) {
	_, net, _ := rig(0)
	snd := NewSender(net, 1, 2, Config{})
	if snd.cfg.RTO != DefaultConfig.RTO {
		t.Fatal("zero RTO not defaulted")
	}
}

func TestCourierDeliverConfirm(t *testing.T) {
	sched, net, s := rig(0)
	c := NewCourier(net, 1, Config{RTO: 10 * sim.Millisecond, MaxRetries: 3})
	c.Deliver(2, &msg.Heartbeat{From: 1})
	if !c.Busy() {
		t.Fatal("not busy after Deliver")
	}
	sched.After(2*sim.Millisecond, func() { c.Confirm() })
	if _, err := sched.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(s.got) != 1 {
		t.Fatalf("delivered %d, want 1", len(s.got))
	}
	if c.Busy() {
		t.Fatal("busy after Confirm")
	}
}

func TestCourierRetriesThenFails(t *testing.T) {
	sched, net, _ := rig(0)
	net.Crash(2)
	c := NewCourier(net, 1, Config{RTO: 5 * sim.Millisecond, MaxRetries: 2})
	var failed msg.Message
	c.OnFail = func(to seq.NodeID, m msg.Message) {
		if to != 2 {
			t.Errorf("failed to = %v", to)
		}
		failed = m
	}
	c.Deliver(2, &msg.Heartbeat{From: 1})
	if _, err := sched.RunAll(); err != nil {
		t.Fatal(err)
	}
	if failed == nil {
		t.Fatal("OnFail not called")
	}
	if c.Busy() {
		t.Fatal("busy after fail")
	}
	if c.Retransmissions != 2 {
		t.Fatalf("retransmissions = %d", c.Retransmissions)
	}
}

func TestCourierRedeliverCancelsPrevious(t *testing.T) {
	sched, net, s := rig(0)
	c := NewCourier(net, 1, Config{RTO: 5 * sim.Millisecond, MaxRetries: 10})
	c.Deliver(2, &msg.Heartbeat{From: 1})
	c.Deliver(2, &msg.LeaveReq{Group: 9}) // replaces
	sched.After(2*sim.Millisecond, func() { c.Confirm() })
	if _, err := sched.RunAll(); err != nil {
		t.Fatal(err)
	}
	// Both initial transmissions went out, but no retransmission of the
	// first one.
	kinds := map[msg.Kind]int{}
	for _, m := range s.got {
		kinds[m.Kind()]++
	}
	if kinds[msg.KindHeartbeat] != 1 {
		t.Fatalf("first delivery retransmitted: %v", kinds)
	}
	if c.String() == "" {
		t.Fatal("courier String")
	}
}

func TestCourierLossyEventuallyDelivers(t *testing.T) {
	sched, net, s := rig(0.6)
	c := NewCourier(net, 1, Config{RTO: 5 * sim.Millisecond, MaxRetries: 0})
	c.Deliver(2, &msg.Heartbeat{From: 1})
	net.Register(2, netsim.HandlerFunc(func(from seq.NodeID, m msg.Message) {
		s.got = append(s.got, m)
		c.Confirm()
	}))
	if _, err := sched.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(s.got) == 0 {
		t.Fatal("never delivered over lossy link")
	}
}

// TestSenderAckReleasesExactlyTheCumulativePrefix drives both release
// paths of Ack against a 4,096-message window: dense single-step and
// ranged acks (the walk over the acknowledged range), and a sparse window
// with a cum that leaps past it (the walk over the window). After every
// ack exactly the seqnos above cum stay outstanding, and they still
// retransmit.
func TestSenderAckReleasesExactlyTheCumulativePrefix(t *testing.T) {
	const window = 4096
	sched, net, s := rig(0)
	net.SetLinkUp(1, 2, false)
	snd := NewSender(net, 1, 2, Config{RTO: 10 * sim.Millisecond})
	for n := uint64(1); n <= window; n++ {
		snd.Send(n, &msg.Heartbeat{From: 1})
	}
	for _, cum := range []uint64{1, 2, 3, 100, 101, 2000} {
		snd.Ack(cum)
		if got := snd.Outstanding(); got != window-int(cum) {
			t.Fatalf("after Ack(%d): %d outstanding, want %d", cum, got, window-int(cum))
		}
	}
	// Sparse: only every 64th seqno above the window is outstanding, and
	// the cumulative ack leaps a thousand seqnos ahead.
	for n := uint64(window + 64); n <= 4*window; n += 64 {
		snd.Send(n, &msg.Heartbeat{From: 1})
	}
	before := snd.Outstanding()
	snd.Ack(window + 1000)
	released := window - 2000 + 15 // the dense remainder, then 64·1..64·15 past the window
	if got := snd.Outstanding(); got != before-released {
		t.Fatalf("after leaping Ack: %d outstanding, want %d", got, before-released)
	}
	net.SetLinkUp(1, 2, true)
	if _, err := sched.Run(15 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(s.got) != snd.Outstanding() {
		t.Fatalf("one RTO after healing, %d retransmissions arrived for %d outstanding", len(s.got), snd.Outstanding())
	}
	for _, m := range s.got {
		if m.(*msg.Heartbeat).From != 1 {
			t.Fatal("unexpected message")
		}
	}
}

// BenchmarkSenderAckBacklog is one cumulative ack releasing one message
// behind a backlog of outstanding ones — a lagging successor's window —
// and one send refilling it. The cost must not grow with the backlog:
// the 4,096 case must cost within 1.5× of the 64 case. It allocates
// nothing: the ring and the deadline heap are reused, and the hop's one
// timer is not re-armed while an earlier deadline stands. CI's benchgate
// holds both cases to 0 B/op and 0 allocs/op (ci/bench_baseline.json).
func BenchmarkSenderAckBacklog(b *testing.B) {
	for _, backlog := range []int{64, 4096} {
		b.Run(fmt.Sprintf("outstanding=%d", backlog), func(b *testing.B) {
			_, net, _ := rig(0)
			net.SetLinkUp(1, 2, false)
			snd := NewSender(net, 1, 2, Config{RTO: sim.Second})
			m := &msg.Heartbeat{From: 1}
			next := uint64(1)
			for ; next <= uint64(backlog); next++ {
				snd.Send(next, m)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snd.Ack(snd.Acked() + 1)
				snd.Send(next, m)
				next++
			}
		})
	}
}
