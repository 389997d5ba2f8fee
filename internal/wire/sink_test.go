package wire

import (
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/seq"
	"repro/internal/sim"
)

// sinkOp is one step of a delivery stream as member 1 sees it: a submit
// of its own local, or a delivery of ⟨g, src, local⟩.
type sinkOp struct {
	submit  bool
	g       seq.GlobalSeq
	src     seq.NodeID
	local   seq.LocalSeq
	at      sim.Time
	payload []byte
}

func newTestSink(t *testing.T) *deliverySink {
	t.Helper()
	s, err := newDeliverySink(1, 1, sim.NewScheduler(), newNodeTelemetry(1, 0).group(1), "", "")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSinkMatchesDeliveryLog drives identical streams through the
// daemon's bounded delivery sink and through the simulator's exact
// oracle, metrics.DeliveryLog, and requires the same numbers and the same
// first-violation verdict: the sink replaced the oracle on the wire path
// and must account exactly what it did.
func TestSinkMatchesDeliveryLog(t *testing.T) {
	const ms = sim.Millisecond
	sub := func(local seq.LocalSeq, at sim.Time) sinkOp { return sinkOp{submit: true, local: local, at: at} }
	dlv := func(g seq.GlobalSeq, src seq.NodeID, local seq.LocalSeq, at sim.Time) sinkOp {
		return sinkOp{g: g, src: src, local: local, at: at}
	}
	stamped := make([]byte, 16)
	binary.LittleEndian.PutUint64(stamped, uint64(time.Now().Add(-3*time.Millisecond).UnixNano()))

	cases := []struct {
		name     string
		ops      []sinkOp
		wantErr  bool
		wantLatN int
		wantOwn  int // own sends still in the FIFO at the end
		wantX    int // cross-latency samples
	}{
		{name: "in order", wantLatN: 3, ops: []sinkOp{
			sub(1, 0), sub(2, 1*ms), dlv(1, 1, 1, 4*ms), dlv(2, 2, 1, 5*ms), sub(3, 6*ms),
			dlv(3, 1, 2, 7*ms), dlv(4, 2, 2, 19*ms), dlv(5, 1, 3, 20*ms),
		}},
		{name: "duplicate global", wantErr: true, wantLatN: 2, ops: []sinkOp{
			sub(1, 0), sub(2, 0), dlv(1, 1, 1, 2*ms), dlv(2, 2, 1, 3*ms), dlv(2, 2, 1, 30*ms),
			dlv(3, 1, 2, 31*ms), dlv(3, 1, 2, 90*ms),
		}},
		{name: "regressing global", wantErr: true, wantLatN: 1, wantOwn: 1, ops: []sinkOp{
			sub(1, 0), sub(2, 0), dlv(7, 2, 1, 1*ms), dlv(8, 1, 1, 2*ms),
			dlv(5, 1, 2, 50*ms), // refused: own local 2 stays pending
			dlv(9, 2, 2, 60*ms),
		}},
		{name: "really-lost own message", wantLatN: 2, ops: []sinkOp{
			sub(1, 0), sub(2, 1*ms), sub(3, 2*ms), dlv(1, 1, 1, 5*ms), dlv(2, 2, 1, 6*ms),
			dlv(4, 1, 3, 40*ms), // global 3 = own local 2 was written off
		}},
		{name: "mid-stream first global", wantLatN: 1, ops: []sinkOp{
			dlv(500, 2, 77, 10*ms), dlv(501, 3, 12, 11*ms), sub(1, 12*ms), dlv(502, 1, 1, 15*ms),
			dlv(503, 1, 9, 16*ms), // an own message this incarnation never submitted
		}},
		{name: "short and stamped payloads", wantX: 1, ops: []sinkOp{
			{g: 1, src: 2, local: 1, at: 1 * ms, payload: []byte{1, 2, 3}},
			{g: 2, src: 2, local: 2, at: 2 * ms, payload: stamped},
			{g: 3, src: 2, local: 3, at: 9 * ms, payload: make([]byte, 8)}, // zero stamp: no sample
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := newTestSink(t)
			s.offsetOf = func(seq.NodeID) (time.Duration, bool) { return 0, true }
			ref := metrics.NewDeliveryLog()
			ref.Join(1, 0)
			for _, op := range c.ops {
				s.sched.At(op.at, func() {
					if op.submit {
						s.submitted(op.local)
						ref.Sent(1, op.local, op.at)
						return
					}
					s.deliver(1, &msg.Data{GlobalSeq: op.g, SourceNode: op.src, LocalSeq: op.local, Payload: op.payload})
					ref.Deliver(1, op.g, op.src, op.local, op.at)
				})
			}
			if _, err := s.sched.RunAll(); err != nil {
				t.Fatal(err)
			}
			if got, want := s.delivered(), ref.DeliveredAt(1); got != want {
				t.Errorf("delivered %d, reference %d", got, want)
			}
			if got, want := s.lastG, ref.LastAt(1); got != want {
				t.Errorf("last global %d, reference %d", got, want)
			}
			if got, want := s.throughput(), ref.Throughput(); got != want {
				t.Errorf("throughput %v, reference %v", got, want)
			}
			if got, want := s.maxGap, ref.MaxGapAt(1); got != want {
				t.Errorf("max gap %v, reference %v", got, want)
			}
			if got, want := s.lat.N(), ref.Latency.N(); got != want || got != c.wantLatN {
				t.Errorf("own-latency samples %d, reference %d, want %d", got, want, c.wantLatN)
			}
			if got, want := s.lat.Mean(), ref.Latency.Mean(); got != want {
				t.Errorf("own-latency mean %v, reference %v", got, want)
			}
			if got := len(s.own) - s.ownHead; got != c.wantOwn {
				t.Errorf("own FIFO holds %d entries, want %d", got, c.wantOwn)
			}
			switch refErr := ref.Err(); {
			case (s.orderErr != nil) != c.wantErr || (refErr != nil) != c.wantErr:
				t.Errorf("order verdict %v, reference %v, want violation=%v", s.orderErr, refErr, c.wantErr)
			case c.wantErr && !strings.HasSuffix(refErr.Error(), s.orderErr.Error()):
				t.Errorf("first violation %q, reference %q", s.orderErr, refErr)
			}
			if got := s.crossLat.N(); got != c.wantX {
				t.Errorf("cross-latency samples %d, want %d", got, c.wantX)
			}
			var rep GroupReport
			s.fill(&rep)
			if rep.Delivered != s.delivered() || rep.Control.Delivered != rep.Delivered || (rep.OrderErr != "") != c.wantErr {
				t.Errorf("report disagrees with the sink: %+v", rep)
			}
		})
	}
}

// TestSinkOwnFIFOCap: a member that keeps sourcing while nothing comes
// back holds at most ownPendingMax entries; the oldest are dropped and
// counted, and the survivors still sample.
func TestSinkOwnFIFOCap(t *testing.T) {
	s := newTestSink(t)
	const extra = 5
	for l := seq.LocalSeq(1); l <= ownPendingMax+extra; l++ {
		s.submitted(l)
	}
	if live := len(s.own) - s.ownHead; live != ownPendingMax || s.ownDropped != extra {
		t.Fatalf("FIFO holds %d (cap %d), dropped %d (want %d)", live, ownPendingMax, s.ownDropped, extra)
	}
	if cap(s.own) > 4*ownPendingMax {
		t.Fatalf("backing array grew to %d entries", cap(s.own))
	}
	s.deliver(1, &msg.Data{GlobalSeq: 1, SourceNode: 1, LocalSeq: extra}) // dropped: no sample
	s.deliver(1, &msg.Data{GlobalSeq: 2, SourceNode: 1, LocalSeq: extra + 1})
	if s.lat.N() != 1 {
		t.Fatalf("latency samples %d, want 1", s.lat.N())
	}
}
