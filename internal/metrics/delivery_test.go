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
	l.Sent(1, 1, 0)
	l.Deliver(1, 1, 1, 1, 5*sim.Millisecond)
	if l.SentCount() != 1 || l.Latency.N() != 1 || l.Latency.Mean() != 0.005 {
		t.Fatalf("send at t = 0: sent %d, latency %s", l.SentCount(), l.Latency.Summary())
	}
}

func TestDeliveryLogFarGlobal(t *testing.T) {
	l := NewDeliveryLog()
	far := seq.GlobalSeq(1) << 40
	l.Deliver(1, 1, 1, 1, 0)
	l.Deliver(1, far, 1, 2, 1)
	l.Deliver(2, far, 1, 2, 1)
	if l.Err() != nil {
		t.Fatal(l.Err())
	}
	if n := len(l.content.pages); n != 2 {
		t.Fatalf("a jump to global %d holds %d content pages, want 2", far, n)
	}
	l.Deliver(3, far, 2, 2, 1)
	if l.Err() == nil {
		t.Fatal("content mismatch at a far global not detected")
	}
}

func TestDeliveryLogContentAcrossPageBoundary(t *testing.T) {
	// Globals 1024 and 1025 are the last entry of the first page and the
	// first of the second.
	for _, bad := range []seq.GlobalSeq{1024, 1025} {
		l := NewDeliveryLog()
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
	for i := 0; i < 20; i++ {
		if got := l.Throughput(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: Throughput = %v, want the ascending-receiver sum %v", i, got, want)
		}
	}
}
