package metrics

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/seq"
	"repro/internal/sim"
)

func TestDeliveryLogGappedLocals(t *testing.T) {
	l := NewDeliveryLog()
	l.Join(1, 0)
	// Locals 1, 5 and 3000 (past the first page) are sent; 2 is not.
	for _, loc := range []seq.LocalSeq{1, 5, 3000} {
		l.Sent(7, loc, sim.Time(loc)*sim.Millisecond)
	}
	l.Sent(7, 5, 5*sim.Millisecond) // a repeat is one send
	if l.SentCount() != 3 {
		t.Fatalf("SentCount = %d, want 3", l.SentCount())
	}
	for g, loc := range []seq.LocalSeq{1, 2, 5, 3000} {
		l.Deliver(1, seq.GlobalSeq(g+1), 7, loc, sim.Time(loc)*sim.Millisecond+10*sim.Millisecond)
	}
	// A local that only another source sent has no send time either.
	l.Deliver(1, 5, 8, 1, sim.Second)
	if l.Err() != nil {
		t.Fatal(l.Err())
	}
	if l.Latency.N() != 3 || l.Latency.Min() != 0.01 || l.Latency.Max() != 0.01 {
		t.Fatalf("latency over recorded sends only: %s", l.Latency.Summary())
	}
}

func TestDeliveryLogSendAtTimeZero(t *testing.T) {
	l := NewDeliveryLog()
	l.Join(1, 0)
	l.Sent(1, 1, 0)
	l.Deliver(1, 1, 1, 1, 5*sim.Millisecond)
	if l.SentCount() != 1 || l.Latency.N() != 1 || l.Latency.Mean() != 0.005 {
		t.Fatalf("send at t = 0: sent %d, latency %s", l.SentCount(), l.Latency.Summary())
	}
}

func TestDeliveryLogFarGlobal(t *testing.T) {
	l := NewDeliveryLog()
	for r := uint32(1); r <= 3; r++ {
		l.Join(r, 0)
	}
	far := seq.GlobalSeq(1) << 40
	l.Deliver(1, 1, 1, 1, 0)
	l.Deliver(1, far, 1, 2, 1)
	l.Deliver(2, far, 1, 2, 1)
	if l.Err() != nil {
		t.Fatal(l.Err())
	}
	if n := len(l.window.pages); n != 2 {
		t.Fatalf("a jump to global %d holds %d content pages, want 2", far, n)
	}
	l.Deliver(3, far, 2, 2, 1)
	if l.Err() == nil {
		t.Fatal("content mismatch at a far global not detected")
	}
}

func TestDeliveryLogContentAcrossPageBoundary(t *testing.T) {
	// Globals 1023 and 1024 are the last entry of the window's first
	// page and the first of its second; 1025 lies just past them.
	for _, bad := range []seq.GlobalSeq{1023, 1024, 1025} {
		l := NewDeliveryLog()
		l.Join(1, 0)
		l.Join(2, 0)
		for g := seq.GlobalSeq(1020); g <= 1030; g++ {
			l.Deliver(1, g, 1, seq.LocalSeq(g), 0)
		}
		for g := seq.GlobalSeq(1020); g <= 1030; g++ {
			loc := seq.LocalSeq(g)
			if g == bad {
				loc++
			}
			l.Deliver(2, g, 1, loc, 0)
		}
		if err := l.Err(); err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("global seq %d ", bad)) {
			t.Fatalf("content conflict at global %d: got %v", bad, err)
		}
	}
}

func TestDeliveryLogThroughputDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 3))
	l := NewDeliveryLog()
	ids := rng.Perm(60)
	for _, id := range ids {
		l.Join(uint32(id), 0)
	}
	for _, id := range ids {
		n := 2 + rng.IntN(50)
		step := sim.Time(1 + rng.IntN(997))
		for g := 1; g <= n; g++ {
			l.Deliver(uint32(id), seq.GlobalSeq(g), 1, seq.LocalSeq(g), sim.Time(g)*step)
		}
	}
	slices.Sort(ids)
	var sum float64
	for _, id := range ids {
		st := l.perReceiver[uint32(id)]
		sum += float64(st.delivered-1) / (st.lastAt - st.firstAt).Seconds()
	}
	want := sum / float64(len(ids))
	if l.Err() != nil || math.IsNaN(want) {
		t.Fatalf("setup: %v, want %v", l.Err(), want)
	}
	for i := 0; i < 20; i++ {
		if got := l.Throughput(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: Throughput = %v, want the ascending-receiver sum %v", i, got, want)
		}
	}
}

// TestDeliveryLogHoldsWindowNotStream runs R receivers in staggered
// lockstep, each a fixed distance behind the first, over N messages:
// what the log holds is the window between the slowest and the newest,
// the same at every N.
func TestDeliveryLogHoldsWindowNotStream(t *testing.T) {
	const receivers, stagger = 8, 10
	held := func(n int) (entries, pages int) {
		l := NewDeliveryLog()
		for r := uint32(0); r < receivers; r++ {
			l.Join(r, 0)
		}
		for g := 1; g <= n+receivers*stagger; g++ {
			if g <= n {
				l.Sent(seq.NodeID(g%3), seq.LocalSeq(g), sim.Time(g))
			}
			for r := 0; r < receivers; r++ {
				if d := g - r*stagger; d >= 1 && d <= n {
					// Receiver r is r*stagger behind; the window is held
					// at its widest once the last one starts.
					l.Deliver(uint32(r), seq.GlobalSeq(d), seq.NodeID(d%3), seq.LocalSeq(d), sim.Time(g+1))
				}
			}
			if g == n {
				entries = l.Settle()
				pages = len(l.window.pages)
				for _, f := range l.sendTime {
					pages += len(f.times.pages)
				}
			}
		}
		if l.Err() != nil || l.Latency.N() != n*receivers {
			t.Fatalf("n=%d: %v, %d latency samples", n, l.Err(), l.Latency.N())
		}
		if rest := l.Settle(); rest != 0 {
			t.Fatalf("n=%d: %d entries held after every receiver caught up", n, rest)
		}
		return entries, pages
	}
	e1, p1 := held(5_000)
	e2, p2 := held(200_000)
	t.Logf("held %d entries in %d pages after 5k messages, %d in %d after 200k", e1, p1, e2, p2)
	// 70 content entries above the slowest receiver and their 70 send
	// times.
	if e1 != e2 || e1 > 2*receivers*stagger || p1 != p2 {
		t.Fatalf("held %d entries in %d pages after 5k messages, %d in %d after 200k: want the same window", e1, p1, e2, p2)
	}
}

// TestDeliveryLogRefusesWhatItCannotCheck covers the deliveries the
// log no longer holds the content for: they are violations, never
// silently passed.
func TestDeliveryLogRefusesWhatItCannotCheck(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(l *DeliveryLog)
		want string
	}{
		{"undeclared", func(l *DeliveryLog) {
			l.Deliver(9, 1, 1, 1, 0)
		}, "receiver 9 delivered global seq 1 without having joined"},
		{"below its start", func(l *DeliveryLog) {
			l.Join(1, 40)
			l.Deliver(1, 40, 1, 40, 0)
		}, "receiver 1: global seq 40 at or below its position 40"},
		{"below a skip", func(l *DeliveryLog) {
			l.Join(1, 0)
			l.Skip(1, 1)
			l.Deliver(1, 1, 1, 1, 0)
		}, "receiver 1: global seq 1 at or below its position 1"},
		{"after leaving", func(l *DeliveryLog) {
			l.Join(1, 0)
			l.Deliver(1, 1, 1, 1, 0)
			l.Leave(1)
			l.Deliver(1, 2, 1, 2, 0)
		}, "receiver 1 delivered global seq 2 without having joined"},
		{"joined below the horizon", func(l *DeliveryLog) {
			// Receiver 1 alone delivers 1..3000: the horizon follows it,
			// so a receiver joining at 0 cannot have 2000 checked.
			l.Join(1, 0)
			for g := seq.GlobalSeq(1); g <= 3000; g++ {
				l.Deliver(1, g, 1, seq.LocalSeq(g), 0)
			}
			l.Join(2, 0)
			l.Deliver(2, 2000, 7, 7, 0)
		}, "receiver 2: global seq 2000 at or below its position 3000"},
		{"joined twice", func(l *DeliveryLog) {
			l.Join(1, 0)
			l.Join(1, 5)
		}, "receiver 1 joined twice"},
	} {
		l := NewDeliveryLog()
		c.run(l)
		if err := l.Err(); err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%s: got %v, want %q", c.name, err, c.want)
		}
	}
}

// TestDeliveryLogFloorHoldsHorizon: with Floor set, the horizon stops at
// it, so a receiver given a start at the floor is checked from there.
func TestDeliveryLogFloorHoldsHorizon(t *testing.T) {
	l := NewDeliveryLog()
	floor := seq.GlobalSeq(100)
	l.Floor = func() seq.GlobalSeq { return floor }
	l.Join(1, 0)
	for g := seq.GlobalSeq(1); g <= 5000; g++ {
		l.Deliver(1, g, 1, seq.LocalSeq(g), 0)
	}
	if l.horizon != floor {
		t.Fatalf("horizon %d, want the floor %d", l.horizon, floor)
	}
	l.Join(2, floor)
	l.Deliver(2, floor+1, 1, seq.LocalSeq(floor+2), 0)
	if err := l.Err(); err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("global seq %d ", floor+1)) {
		t.Fatalf("a conflict just above the floor: got %v", err)
	}
	// Receiver 2 now holds the horizon at the floor; once it catches up
	// and the floor moves, Settle releases everything.
	l.violation = nil
	for g := floor + 1; g <= 5000; g++ {
		l.Deliver(2, g, 1, seq.LocalSeq(g), 0)
	}
	floor = 5000
	if n := l.Settle(); n != 0 || l.horizon != 5000 || l.Err() != nil {
		t.Fatalf("after the floor moved: %d entries held, horizon %d, %v", n, l.horizon, l.Err())
	}
}

// TestDeliveryLogPopsOlderLocals: a source's really-lost messages, and
// a send never ordered, are released once a later local of the source
// falls to the horizon; they are never delivered to pop themselves.
func TestDeliveryLogPopsOlderLocals(t *testing.T) {
	l := NewDeliveryLog()
	l.Join(1, 0)
	l.Join(2, 0)
	// Source 3 sends locals 1..10; 4 is never ordered, and the globals
	// carrying 3 and 5 are really lost.
	for loc := seq.LocalSeq(1); loc <= 10; loc++ {
		l.Sent(3, loc, sim.Time(loc))
	}
	g := seq.GlobalSeq(0)
	for loc := seq.LocalSeq(1); loc <= 10; loc++ {
		if loc == 4 {
			continue
		}
		g++
		for r := uint32(1); r <= 2; r++ {
			if loc == 3 || loc == 5 {
				l.Skip(r, g)
			} else {
				l.Deliver(r, g, 3, loc, sim.Time(loc)+5)
			}
		}
	}
	if n := l.Settle(); n != 0 || l.Err() != nil || l.Latency.N() != 14 {
		t.Fatalf("held %d entries after every receiver passed local 10 (%v, %d samples)", n, l.Err(), l.Latency.N())
	}
}
