package metrics

import (
	"fmt"
	"slices"

	"repro/internal/seq"
	"repro/internal/sim"
)

// DeliveryLog verifies end-to-end multicast properties while measuring
// them: it records, per receiver, the global-sequence stream actually
// delivered and checks the total-order and no-duplicate invariants
// online. It also computes per-message latency against a send-time table
// maintained by the workload generator.
//
// It holds 24 B per message (an 8 B send time and a 16 B content entry,
// in pages allocated on first use) and a fixed record per receiver;
// latencies go to a fixed-memory Sample.
type DeliveryLog struct {
	// sendTime holds each source's send times, indexed by local-1
	// (Engine.Submit numbers a source's messages 1, 2, 3, ...).
	sendTime map[seq.NodeID]*table[sentAt]
	sent     int // recorded sends
	// content holds each global seq's (source, local), indexed by
	// global-1, for cross-receiver consistency checking.
	content table[contentEntry]
	// perReceiver tracks each receiver's last delivered global seq and
	// delivered set size.
	perReceiver map[uint32]*receiverState

	Latency   Sample  // seconds, across all receivers
	Delivered Counter // total deliveries across receivers
	Gaps      Counter // really-lost messages skipped
	violation error
}

type sendKey struct {
	Source seq.NodeID
	Local  seq.LocalSeq
}

// sentAt is a send time plus one, so that the zero entry means "not
// sent" and a send at t = 0 still counts. Virtual time is never
// negative.
type sentAt sim.Time

// contentEntry is one global seq's content; ok marks it recorded (and
// fills what would be padding).
type contentEntry struct {
	src   seq.NodeID
	ok    bool
	local seq.LocalSeq
}

// pageBits sets the tables' page size: 1,024 entries, so a page of send
// times is 8 KB and a page of content 16 KB.
const pageBits = 10

// table is an exact sparse array from a uint64 index to T whose zero
// value means "absent". Fixed-size pages keyed by index>>pageBits are
// allocated when first written, so its memory follows the indices in
// use, not their magnitude: a stream that starts at 50, or jumps far
// ahead, costs one page.
type table[T any] struct {
	pages map[uint64]*[1 << pageBits]T
}

// get returns entry i, or the zero T if it was never set.
func (t *table[T]) get(i uint64) (v T) {
	if p := t.pages[i>>pageBits]; p != nil {
		v = p[i%(1<<pageBits)]
	}
	return v
}

// at returns a pointer to entry i, allocating its page.
func (t *table[T]) at(i uint64) *T {
	p := t.pages[i>>pageBits]
	if p == nil {
		if t.pages == nil {
			t.pages = make(map[uint64]*[1 << pageBits]T)
		}
		p = new([1 << pageBits]T)
		t.pages[i>>pageBits] = p
	}
	return &p[i%(1<<pageBits)]
}

type receiverState struct {
	last      seq.GlobalSeq
	delivered uint64
	// firstAt/lastAt bracket this receiver's delivery activity.
	firstAt, lastAt sim.Time
	// maxGapAt tracks the largest inter-delivery gap (handoff
	// disruption metric).
	maxGap sim.Time
	// joined marks receivers that started mid-stream; their first
	// delivery may begin past 1.
	seen bool
}

// NewDeliveryLog returns an empty log.
func NewDeliveryLog() *DeliveryLog {
	return &DeliveryLog{
		sendTime:    make(map[seq.NodeID]*table[sentAt]),
		perReceiver: make(map[uint32]*receiverState),
	}
}

// Sent records that (src, local) was submitted at time t.
func (l *DeliveryLog) Sent(src seq.NodeID, local seq.LocalSeq, t sim.Time) {
	tab := l.sendTime[src]
	if tab == nil {
		tab = new(table[sentAt])
		l.sendTime[src] = tab
	}
	e := tab.at(uint64(local) - 1)
	if *e == 0 {
		l.sent++
	}
	*e = sentAt(t + 1)
}

// SentCount returns the number of recorded sends.
func (l *DeliveryLog) SentCount() int { return l.sent }

// Deliver records that receiver recv delivered global sequence g carrying
// (src, local) at time t, and checks invariants:
//   - per-receiver global sequence strictly increases (total order);
//   - all receivers agree on the content of each global sequence.
func (l *DeliveryLog) Deliver(recv uint32, g seq.GlobalSeq, src seq.NodeID, local seq.LocalSeq, t sim.Time) {
	st, ok := l.perReceiver[recv]
	if !ok {
		st = &receiverState{}
		l.perReceiver[recv] = st
	}
	if st.seen && g <= st.last {
		l.fail(fmt.Errorf("receiver %d: global seq %d after %d (order violation or duplicate)", recv, g, st.last))
		return
	}
	key := sendKey{src, local}
	if c := l.content.at(uint64(g) - 1); !c.ok {
		*c = contentEntry{src: src, ok: true, local: local}
	} else if prev := (sendKey{c.src, c.local}); prev != key {
		l.fail(fmt.Errorf("global seq %d delivered as %v at receiver %d but %v elsewhere", g, key, recv, prev))
		return
	}
	if st.seen {
		if gap := t - st.lastAt; gap > st.maxGap {
			st.maxGap = gap
		}
	} else {
		st.firstAt = t
	}
	st.seen = true
	st.last = g
	st.lastAt = t
	st.delivered++
	l.Delivered.Inc()
	if tab := l.sendTime[src]; tab != nil {
		if sent := tab.get(uint64(local) - 1); sent != 0 {
			l.Latency.AddTime(t - sim.Time(sent-1))
		}
	}
}

// Skip records that receiver recv skipped global sequence g as really
// lost.
func (l *DeliveryLog) Skip(recv uint32, g seq.GlobalSeq) { l.Gaps.Inc() }

func (l *DeliveryLog) fail(err error) {
	if l.violation == nil {
		l.violation = err
	}
}

// Err returns the first invariant violation observed, if any.
func (l *DeliveryLog) Err() error { return l.violation }

// Receivers returns the number of receivers that delivered anything.
func (l *DeliveryLog) Receivers() int { return len(l.perReceiver) }

// DeliveredAt returns how many messages receiver recv delivered.
func (l *DeliveryLog) DeliveredAt(recv uint32) uint64 {
	if st, ok := l.perReceiver[recv]; ok {
		return st.delivered
	}
	return 0
}

// LastAt returns the highest global sequence receiver recv delivered.
func (l *DeliveryLog) LastAt(recv uint32) seq.GlobalSeq {
	if st, ok := l.perReceiver[recv]; ok {
		return st.last
	}
	return 0
}

// MaxGapAt returns the largest inter-delivery gap at recv (handoff
// disruption), or 0.
func (l *DeliveryLog) MaxGapAt(recv uint32) sim.Time {
	if st, ok := l.perReceiver[recv]; ok {
		return st.maxGap
	}
	return 0
}

// MaxGap returns the largest inter-delivery gap across receivers.
func (l *DeliveryLog) MaxGap() sim.Time {
	var m sim.Time
	for _, st := range l.perReceiver {
		if st.maxGap > m {
			m = st.maxGap
		}
	}
	return m
}

// MinDelivered returns the smallest per-receiver delivery count (all
// receivers should converge when the run quiesces).
func (l *DeliveryLog) MinDelivered() uint64 {
	first := true
	var min uint64
	for _, st := range l.perReceiver {
		if first || st.delivered < min {
			min = st.delivered
			first = false
		}
	}
	if first {
		return 0
	}
	return min
}

// Throughput returns deliveries per second per receiver measured from
// each receiver's first to last delivery, averaged across receivers. The
// rates are summed in ascending receiver order, so the float result is
// the same on every call and every run.
func (l *DeliveryLog) Throughput() float64 {
	ids := make([]uint32, 0, len(l.perReceiver))
	for id := range l.perReceiver {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var sum float64
	var n int
	for _, id := range ids {
		st := l.perReceiver[id]
		span := (st.lastAt - st.firstAt).Seconds()
		if span <= 0 || st.delivered < 2 {
			continue
		}
		sum += float64(st.delivered-1) / span
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
