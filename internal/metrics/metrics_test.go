package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/seq"
	"repro/internal/sim"
)

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Quantile(0.5) != 0 {
		t.Fatal("empty sample should answer zeros")
	}
}

func TestSampleBasics(t *testing.T) {
	var s Sample
	for _, v := range []float64{3, 1, 4, 1, 5, 9, 2, 6} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-3.875) > 1e-12 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if s.Quantile(0) != 1 || s.Quantile(1) != 9 {
		t.Fatalf("extreme quantiles: %v %v", s.Quantile(0), s.Quantile(1))
	}
	// Nearest rank: the 4th of 1 1 2 3 4 5 6 9 is 3; the histogram
	// answers its bucket's midpoint, within alpha of it.
	if q := s.Quantile(0.5); math.Abs(q-3) > alpha*3 {
		t.Fatalf("median = %v, want 3 within %v", q, alpha)
	}
}

func TestSampleAddAfterQuantile(t *testing.T) {
	var s Sample
	s.Add(5)
	_ = s.Quantile(0.5)
	s.Add(1)
	if s.Quantile(0) != 1 {
		t.Fatal("sample not re-sorted after Add")
	}
}

func TestSampleAddTime(t *testing.T) {
	var s Sample
	s.AddTime(500 * sim.Millisecond)
	if math.Abs(s.Mean()-0.5) > 1e-12 {
		t.Fatalf("AddTime mean = %v", s.Mean())
	}
	if s.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestQuickQuantileWithinRange(t *testing.T) {
	f := func(vals []float64, p float64) bool {
		var s Sample
		ok := false
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				s.Add(v)
				ok = true
			}
		}
		if !ok {
			return true
		}
		p = math.Mod(math.Abs(p), 1)
		q := s.Quantile(p)
		return q >= s.Min() && q <= s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, v := range raw {
			s.Add(float64(v))
		}
		ps := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
		qs := make([]float64, len(ps))
		for i, p := range ps {
			qs[i] = s.Quantile(p)
		}
		return sort.Float64sAreSorted(qs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Inc()
	if c.Value() != 2 {
		t.Fatalf("Value = %d", c.Value())
	}
}

func TestDeliveryLogLatencyAndThroughput(t *testing.T) {
	l := NewDeliveryLog()
	l.Sent(1, 1, 0)
	l.Sent(1, 2, 1*sim.Second)
	l.Deliver(100, 1, 1, 1, 2*sim.Second)
	l.Deliver(100, 2, 1, 2, 3*sim.Second)
	if l.Err() != nil {
		t.Fatal(l.Err())
	}
	if l.Latency.N() != 2 || math.Abs(l.Latency.Mean()-2) > 1e-12 {
		t.Fatalf("latency %v", l.Latency.Summary())
	}
	if l.Delivered.Value() != 2 || l.DeliveredAt(100) != 2 || l.LastAt(100) != 2 {
		t.Fatal("delivery counters")
	}
	if th := l.Throughput(); math.Abs(th-1) > 1e-12 {
		t.Fatalf("Throughput = %v", th)
	}
	if l.Receivers() != 1 || l.SentCount() != 2 {
		t.Fatal("receivers/sent")
	}
}

func TestDeliveryLogOrderViolation(t *testing.T) {
	l := NewDeliveryLog()
	l.Deliver(1, 5, 1, 1, 0)
	l.Deliver(1, 5, 1, 1, 1) // duplicate
	if l.Err() == nil {
		t.Fatal("duplicate not detected")
	}
	l2 := NewDeliveryLog()
	l2.Deliver(1, 5, 1, 1, 0)
	l2.Deliver(1, 3, 1, 2, 1) // regression
	if l2.Err() == nil {
		t.Fatal("regression not detected")
	}
}

func TestDeliveryLogContentMismatch(t *testing.T) {
	l := NewDeliveryLog()
	l.Deliver(1, 7, 1, 1, 0)
	l.Deliver(2, 7, 2, 9, 0) // same global seq, different content
	if l.Err() == nil {
		t.Fatal("content mismatch not detected")
	}
}

func TestDeliveryLogAgreementAcrossReceivers(t *testing.T) {
	l := NewDeliveryLog()
	for r := uint32(1); r <= 3; r++ {
		for g := seq.GlobalSeq(1); g <= 10; g++ {
			l.Deliver(r, g, seq.NodeID(g%3+1), seq.LocalSeq(g), sim.Time(g)*sim.Millisecond)
		}
	}
	if l.Err() != nil {
		t.Fatal(l.Err())
	}
	if l.MinDelivered() != 10 {
		t.Fatalf("MinDelivered = %d", l.MinDelivered())
	}
}

func TestDeliveryLogMaxGap(t *testing.T) {
	l := NewDeliveryLog()
	l.Deliver(1, 1, 1, 1, 0)
	l.Deliver(1, 2, 1, 2, 100*sim.Millisecond)
	l.Deliver(1, 3, 1, 3, 1*sim.Second)
	if g := l.MaxGapAt(1); g != 900*sim.Millisecond {
		t.Fatalf("MaxGapAt = %v", g)
	}
	if l.MaxGap() != 900*sim.Millisecond {
		t.Fatal("MaxGap")
	}
	if l.MaxGapAt(99) != 0 {
		t.Fatal("unknown receiver gap")
	}
	l.Skip(1, 4)
	if l.Gaps.Value() != 1 {
		t.Fatal("Skip not counted")
	}
}

func TestDeliveryLogMidStreamJoin(t *testing.T) {
	l := NewDeliveryLog()
	// A receiver that joins at global seq 50 is fine as long as its own
	// stream increases.
	l.Deliver(1, 50, 1, 50, 0)
	l.Deliver(1, 51, 1, 51, 1)
	if l.Err() != nil {
		t.Fatal(l.Err())
	}
}

func TestQuickDeliveryLogAcceptsIncreasing(t *testing.T) {
	f := func(deltas []uint8) bool {
		l := NewDeliveryLog()
		g := seq.GlobalSeq(0)
		for i, d := range deltas {
			g += seq.GlobalSeq(d%7) + 1
			l.Deliver(1, g, 1, seq.LocalSeq(g), sim.Time(i)*sim.Millisecond)
		}
		return l.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
