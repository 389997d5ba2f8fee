package transport

import (
	"slices"
	"testing"

	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/seq"
	"repro/internal/sim"
)

// arrivals is a two-node link whose receiver logs each arriving
// heartbeat's Epoch — the tests' message identity — with its time.
type arrivals struct {
	sched *sim.Scheduler
	net   *netsim.Network
	ids   []uint64
	at    []sim.Time
}

func newArrivals(latency sim.Time) *arrivals {
	a := &arrivals{sched: sim.NewScheduler()}
	a.net = netsim.New(a.sched, sim.NewRNG(5))
	a.net.Register(1, netsim.HandlerFunc(func(seq.NodeID, msg.Message) {}))
	a.net.Register(2, netsim.HandlerFunc(func(_ seq.NodeID, m msg.Message) {
		a.ids = append(a.ids, m.(*msg.Heartbeat).Epoch)
		a.at = append(a.at, a.sched.Now())
	}))
	a.net.Connect(1, 2, netsim.LinkParams{Latency: latency})
	return a
}

func (a *arrivals) drain(t *testing.T) []uint64 {
	t.Helper()
	if _, err := a.sched.Run(a.sched.Now() + 2*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	ids := a.ids
	a.ids, a.at = nil, nil
	return ids
}

func hb(id uint64) msg.Message { return &msg.Heartbeat{From: 1, Epoch: id} }

// TestSenderRepairResendsOutstandingBelowAbove: a gap report resends the
// outstanding seqnos below the highest one the receiver holds — nothing
// the cumulative ack released, nothing at or above the report — once per
// round trip however many reports repeat it, without touching retries,
// and a later cumulative ack still releases everything.
func TestSenderRepairResendsOutstandingBelowAbove(t *testing.T) {
	a := newArrivals(sim.Millisecond)
	s := NewSender(a.net, 1, 2, Config{RTO: 100 * sim.Millisecond, BackoffCap: sim.Second})
	for i := uint64(1); i <= 6; i++ {
		s.Send(i, hb(i))
	}
	a.drain(t)
	s.Ack(2)

	if n := s.Repair(5); n != 2 {
		t.Fatalf("Repair(5) resent %d messages, want 2", n)
	}
	if got := a.drain(t); !slices.Equal(got, []uint64{3, 4}) {
		t.Fatalf("Repair(5) resent %v, want [3 4]", got)
	}
	// The same report again cannot tell whether the repaired copies
	// arrived; nor can one naming a message sent before the repair, which
	// repairs only what was not repaired since.
	if n := s.Repair(5); n != 0 {
		t.Fatalf("a repeated report resent %d messages within one round trip", n)
	}
	if n := s.Repair(6); n != 1 {
		t.Fatalf("Repair(6) resent %d messages, want 1", n)
	}
	if got := a.drain(t); !slices.Equal(got, []uint64{5}) {
		t.Fatalf("Repair(6) resent %v, want [5]", got)
	}
	for sn := uint64(3); sn <= 6; sn++ {
		if i, _ := s.find(sn); s.win.at(i).retries != 0 {
			t.Fatalf("seqno %d: retries %d after repairs, want 0", sn, s.win.at(i).retries)
		}
	}
	if s.Retransmissions != 0 || s.Repairs != 3 {
		t.Fatalf("retransmissions %d, repairs %d; want 0, 3", s.Retransmissions, s.Repairs)
	}

	// A report triggered by something sent after the repair proves the
	// repaired copies lost: they, and whatever else preceded it, go again.
	s.Send(7, hb(7))
	a.drain(t)
	if n := s.Repair(7); n != 4 {
		t.Fatalf("Repair(7) resent %d messages, want 4", n)
	}
	if got := a.drain(t); !slices.Equal(got, []uint64{3, 4, 5, 6}) {
		t.Fatalf("Repair(7) resent %v, want [3 4 5 6]", got)
	}
	if n := s.Repair(9); n != 0 {
		t.Fatalf("a report above anything outstanding resent %d", n)
	}

	s.Ack(7)
	if s.Outstanding() != 0 {
		t.Fatalf("outstanding %d after the cumulative ack", s.Outstanding())
	}
	if _, err := a.sched.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(a.ids) != 0 || s.Retransmissions != 0 {
		t.Fatalf("released messages still retransmitted: %v", a.ids)
	}
}

// TestSenderRepairSparseWindow: a stream that starts far above the
// cumulative ack (a hop retargeted mid-stream) is repaired from its
// window, still in seqno order.
func TestSenderRepairSparseWindow(t *testing.T) {
	a := newArrivals(sim.Millisecond)
	s := NewSender(a.net, 1, 2, Config{RTO: 100 * sim.Millisecond})
	for sn := uint64(1000); sn < 1010; sn++ {
		s.Send(sn, hb(sn))
	}
	a.drain(t)
	if n := s.Repair(1006); n != 6 {
		t.Fatalf("Repair(1006) resent %d messages, want 6", n)
	}
	if got := a.drain(t); !slices.Equal(got, []uint64{1000, 1001, 1002, 1003, 1004, 1005}) {
		t.Fatalf("Repair(1006) resent %v, want 1000..1005 in order", got)
	}
}

// TestSenderRepairRestartsTheTimer: a repaired message's timeout runs
// from the repair, at the unbacked-off RTO.
func TestSenderRepairRestartsTheTimer(t *testing.T) {
	a := newArrivals(sim.Millisecond)
	s := NewSender(a.net, 1, 2, Config{RTO: 10 * sim.Millisecond, BackoffCap: sim.Second})
	s.Send(1, hb(1))
	s.Send(2, hb(2))
	if _, err := a.sched.Run(6 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	s.Repair(2) // at 6 ms: seqno 1's timer now fires at 16 ms, not 10
	if _, err := a.sched.Run(15 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if s.Retransmissions != 1 { // seqno 2 alone timed out, at 10 ms
		t.Fatalf("retransmissions by 15 ms = %d, want 1", s.Retransmissions)
	}
	if _, err := a.sched.Run(17 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if s.Retransmissions != 2 {
		t.Fatalf("retransmissions by 17 ms = %d, want 2", s.Retransmissions)
	}
}

// confirmAfter delivers m on c and confirms it d later, returning the
// courier's RTO after the confirmation.
func confirmAfter(t *testing.T, a *arrivals, c *Courier, d sim.Time) sim.Time {
	t.Helper()
	c.Deliver(2, hb(0))
	a.sched.After(d, c.Confirm)
	if _, err := a.sched.Run(a.sched.Now() + d); err != nil {
		t.Fatal(err)
	}
	return c.RTO()
}

// TestCourierMeasuresItsRTO: under MinRTO the courier's timeout follows
// its confirmed round trips (SRTT + 4·RTTVAR), clamped to [MinRTO, RTO];
// a confirmation of a retransmitted delivery is no sample (Karn); without
// MinRTO the timeout stays fixed.
func TestCourierMeasuresItsRTO(t *testing.T) {
	cfg := Config{RTO: 20 * sim.Millisecond, MinRTO: 2 * sim.Millisecond, BackoffCap: 500 * sim.Millisecond}

	a := newArrivals(sim.Millisecond)
	c := NewCourier(a.net, 1, cfg)
	if got := c.RTO(); got != cfg.RTO {
		t.Fatalf("unsampled RTO %v, want the configured %v", got, cfg.RTO)
	}
	if got := confirmAfter(t, a, c, 3*sim.Millisecond); got != 9*sim.Millisecond {
		t.Fatalf("RTO after one 3 ms sample = %v, want 3 + 4·1.5 = 9 ms", got)
	}
	// A second 3 ms sample: RTTVAR decays by a quarter, SRTT holds.
	if got := confirmAfter(t, a, c, 3*sim.Millisecond); got != 7500*sim.Microsecond {
		t.Fatalf("RTO after two 3 ms samples = %v, want 3 + 4·1.125 = 7.5 ms", got)
	}

	// Karn: the confirmation of a delivery that was retransmitted (the
	// ack may answer either copy) leaves the estimate alone.
	before := c.RTO()
	if got := confirmAfter(t, a, c, before+sim.Millisecond); got != before {
		t.Fatalf("RTO %v after a retransmitted delivery's confirmation, want %v unchanged", got, before)
	}
	if c.Retransmissions != 1 {
		t.Fatalf("retransmissions %d, want 1", c.Retransmissions)
	}
	// Cancel is no acknowledgement either.
	c.Deliver(2, hb(0))
	a.sched.After(sim.Millisecond, c.Cancel)
	if _, err := a.sched.Run(a.sched.Now() + sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if c.RTO() != before {
		t.Fatalf("RTO %v after a cancel, want %v", c.RTO(), before)
	}

	floor := NewCourier(a.net, 1, cfg)
	if got := confirmAfter(t, a, floor, 200*sim.Microsecond); got != cfg.MinRTO {
		t.Fatalf("RTO after a 0.2 ms sample = %v, want the %v floor", got, cfg.MinRTO)
	}
	ceiling := NewCourier(a.net, 1, cfg)
	if got := confirmAfter(t, a, ceiling, 15*sim.Millisecond); got != cfg.RTO {
		t.Fatalf("RTO after a 15 ms sample = %v, want the %v ceiling", got, cfg.RTO)
	}

	fixed := NewCourier(a.net, 1, Config{RTO: 20 * sim.Millisecond})
	if got := confirmAfter(t, a, fixed, 3*sim.Millisecond); got != 20*sim.Millisecond {
		t.Fatalf("RTO %v without MinRTO, want the fixed 20 ms", got)
	}
}

// TestCourierBacksOffFromItsMeasuredRTO: retransmissions double from the
// measured timeout, not the configured one; the first resends the
// delivery unchanged and only later ones go through Resend.
func TestCourierBacksOffFromItsMeasuredRTO(t *testing.T) {
	a := newArrivals(sim.Millisecond)
	c := NewCourier(a.net, 1, Config{RTO: 20 * sim.Millisecond, MinRTO: 2 * sim.Millisecond, BackoffCap: 500 * sim.Millisecond})
	if got := confirmAfter(t, a, c, 2*sim.Millisecond); got != 6*sim.Millisecond {
		t.Fatalf("RTO %v, want 6 ms", got)
	}
	a.drain(t)
	c.Resend = func(m msg.Message) msg.Message { return hb(m.(*msg.Heartbeat).Epoch + 100) }
	start := a.sched.Now()
	c.Deliver(2, hb(1))
	if _, err := a.sched.Run(start + 50*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	c.Cancel()
	// Sent at 0, resent at 6, 6+12 and 18+24 ms; each arrives 1 ms later.
	if want := []uint64{1, 1, 101, 201}; !slices.Equal(a.ids, want) {
		t.Fatalf("sent %v, want %v (first resend unchanged, later ones through Resend)", a.ids, want)
	}
	for i, want := range []sim.Time{1, 7, 19, 43} {
		if got := a.at[i] - start; got != want*sim.Millisecond {
			t.Fatalf("send %d arrived at +%v, want +%v ms", i, got, want)
		}
	}
}
