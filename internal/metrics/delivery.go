package metrics

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/seq"
	"repro/internal/sim"
)

// DeliveryLog verifies end-to-end multicast properties while measuring
// them: it records, per receiver, the global-sequence stream actually
// delivered and checks the total-order and no-duplicate invariants
// online, and that every receiver delivers the same content at each
// global. It also computes per-message latency against the send times
// the workload generator records.
//
// Receivers are declared: Join gives a receiver its start position,
// Deliver and Skip advance it, Leave retires it. The horizon is the
// lowest position any declared receiver holds (capped by Floor, when
// set); no declared receiver can deliver at or below it, so the log
// holds only what lies above it:
//   - a 16 B content entry per global above the horizon, in pages of
//     1,024 dropped once the horizon passes them;
//   - an 8 B send time per (source, local) whose global has not fallen
//     to the horizon, in a per-source FIFO keyed by local: reaching a
//     global pops its local and every older one (really-lost ones too);
//   - a fixed record per receiver, and a fixed-memory latency Sample.
//
// So it holds O(receivers + window), where the window runs from the
// slowest declared receiver (or Floor) to the newest message, and not
// O(messages). A delivery it can no longer check — by an undeclared
// receiver, or at or below the receiver's own position, which the
// horizon never exceeds — is reported as a violation, never skipped.
type DeliveryLog struct {
	// Floor, when set, returns the lowest start a receiver joining now
	// could be given; the horizon never passes it. It is read at most
	// once per page of stream progress, and by Settle.
	Floor func() seq.GlobalSeq

	sendTime map[seq.NodeID]*sendFIFO
	sent     int // recorded sends
	// window holds, for each global from the horizon up, its content
	// and how many declared receivers are positioned there.
	window table[slot]
	// horizon is the highest global no declared receiver can still
	// deliver: every declared position is at or above it.
	horizon seq.GlobalSeq
	// declared counts declared receivers; front is the highest position
	// any receiver has held.
	declared int
	front    seq.GlobalSeq
	// floor is Floor's last reading, taken when front was polledAt;
	// blocked marks a horizon held at floor with no receiver there, to
	// be raised once front has moved a page past polledAt.
	floor    seq.GlobalSeq
	polledAt seq.GlobalSeq
	blocked  bool

	perReceiver map[uint32]*receiverState

	Latency   Sample  // seconds, across all receivers
	Delivered Counter // total deliveries across receivers
	Gaps      Counter // really-lost messages skipped
	violation error
}

// sentAt is a send time plus one, so that the zero entry means "not
// sent" and a send at t = 0 still counts. Virtual time is never
// negative.
type sentAt sim.Time

// sendFIFO is one source's send times, indexed by local; every local
// below first is released.
type sendFIFO struct {
	first seq.LocalSeq
	times table[sentAt]
}

// slot is one global's entry in the window: the content delivered
// there, and in here the number of declared receivers positioned
// there, with recorded as its top bit.
type slot struct {
	src   seq.NodeID
	here  uint32
	local seq.LocalSeq
}

const recorded = 1 << 31

func (s *slot) isRecorded() bool { return s.here&recorded != 0 }

// pageBits sets the tables' page size: 1,024 entries, so a page of send
// times is 8 KB and a page of the window 16 KB.
const (
	pageBits = 10
	page     = 1 << pageBits
)

// table is an exact sparse array from a uint64 index to T whose zero
// value means "absent". Fixed-size pages keyed by index>>pageBits are
// allocated when first written, so its memory follows the indices in
// use, not their magnitude: a stream that starts at 50, or jumps far
// ahead, costs one page. dropBelow releases pages from the bottom.
type table[T any] struct {
	pages map[uint64]*[page]T
	low   uint64 // no page below low is held
}

// get returns entry i, or the zero T if it was never set.
func (t *table[T]) get(i uint64) (v T) {
	if p := t.pages[i>>pageBits]; p != nil {
		v = p[i%page]
	}
	return v
}

// at returns a pointer to entry i, allocating its page. The pointer
// stays valid until the page is dropped.
func (t *table[T]) at(i uint64) *T {
	p := t.pages[i>>pageBits]
	if p == nil {
		if t.pages == nil {
			t.pages = make(map[uint64]*[page]T)
		}
		p = new([page]T)
		t.pages[i>>pageBits] = p
	}
	return &p[i%page]
}

// dropBelow releases every page whose entries all lie below i, in time
// proportional to the smaller of the pages passed and the pages held.
func (t *table[T]) dropBelow(i uint64) {
	end := i >> pageBits
	if end <= t.low {
		return
	}
	if end-t.low <= uint64(len(t.pages)) {
		for p := t.low; p < end; p++ {
			delete(t.pages, p)
		}
	} else {
		for p := range t.pages {
			if p < end {
				delete(t.pages, p)
			}
		}
	}
	t.low = end
}

// nextPage returns the lowest held page above p, or false.
func (t *table[T]) nextPage(p uint64) (uint64, bool) {
	next, ok := uint64(math.MaxUint64), false
	for q := range t.pages {
		if q > p && q <= next {
			next, ok = q, true
		}
	}
	return next, ok
}

type receiverState struct {
	last      seq.GlobalSeq
	delivered uint64
	// firstAt/lastAt bracket this receiver's delivery activity.
	firstAt, lastAt sim.Time
	// maxGapAt tracks the largest inter-delivery gap (handoff
	// disruption metric).
	maxGap sim.Time
	// seen marks a receiver that delivered anything; a receiver that
	// joined mid-stream may begin past 1.
	seen bool
	// declared marks a joined receiver; pos is its position (its start,
	// or the last global it delivered or skipped) and at its count in
	// the window.
	declared bool
	pos      seq.GlobalSeq
	at       *slot
}

// NewDeliveryLog returns an empty log.
func NewDeliveryLog() *DeliveryLog {
	return &DeliveryLog{
		sendTime:    make(map[seq.NodeID]*sendFIFO),
		perReceiver: make(map[uint32]*receiverState),
	}
}

// Join declares receiver recv with its stream starting after global
// start. A start below the horizon is held at the horizon: what lies
// between is no longer checkable, so a delivery there is a violation.
// A receiver that left may join again; its delivery record carries over.
func (l *DeliveryLog) Join(recv uint32, start seq.GlobalSeq) {
	st := l.perReceiver[recv]
	if st == nil {
		st = &receiverState{}
		l.perReceiver[recv] = st
	}
	if st.declared {
		l.fail(fmt.Errorf("receiver %d joined twice", recv))
		return
	}
	st.declared = true
	l.declared++
	st.pos = max(start, l.horizon)
	st.at = l.window.at(uint64(st.pos))
	st.at.here++
	l.front = max(l.front, st.pos)
	l.advance() // the first receiver to join after all left moves it
}

// Leave retires receiver recv: it no longer holds the horizon down.
func (l *DeliveryLog) Leave(recv uint32) {
	st := l.perReceiver[recv]
	if st == nil || !st.declared {
		return
	}
	st.declared = false
	l.declared--
	st.at.here--
	st.at = nil
	if st.pos == l.horizon {
		l.advance()
	}
}

// Sent records that (src, local) was submitted at time t. A source's
// sends are recorded in local order, before they are delivered.
func (l *DeliveryLog) Sent(src seq.NodeID, local seq.LocalSeq, t sim.Time) {
	f := l.sendTime[src]
	if f == nil {
		f = new(sendFIFO)
		l.sendTime[src] = f
	}
	if local < f.first {
		return
	}
	e := f.times.at(uint64(local))
	if *e == 0 {
		l.sent++
	}
	*e = sentAt(t + 1)
}

// SentCount returns the number of recorded sends.
func (l *DeliveryLog) SentCount() int { return l.sent }

// Deliver records that receiver recv delivered global sequence g carrying
// (src, local) at time t, and checks invariants:
//   - the receiver is declared and g lies above its position;
//   - per-receiver global sequence strictly increases (total order);
//   - all receivers agree on the content of each global sequence.
func (l *DeliveryLog) Deliver(recv uint32, g seq.GlobalSeq, src seq.NodeID, local seq.LocalSeq, t sim.Time) {
	st := l.perReceiver[recv]
	if st == nil || !st.declared {
		l.fail(fmt.Errorf("receiver %d delivered global seq %d without having joined", recv, g))
		return
	}
	if st.seen && g <= st.last {
		l.fail(fmt.Errorf("receiver %d: global seq %d after %d (order violation or duplicate)", recv, g, st.last))
		return
	}
	if g <= st.pos {
		l.fail(fmt.Errorf("receiver %d: global seq %d at or below its position %d (its start, a skip or the horizon)", recv, g, st.pos))
		return
	}
	c := l.window.at(uint64(g))
	if !c.isRecorded() {
		c.src, c.local = src, local
		c.here |= recorded
	} else if c.src != src || c.local != local {
		l.fail(fmt.Errorf("global seq %d delivered as {%v %v} at receiver %d but {%v %v} elsewhere", g, src, local, recv, c.src, c.local))
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
	if f := l.sendTime[src]; f != nil && local >= f.first {
		if sent := f.times.get(uint64(local)); sent != 0 {
			l.Latency.AddTime(t - sim.Time(sent-1))
		}
	}
	l.move(st, g, c)
}

// Skip records that receiver recv skipped global sequence g as really
// lost; it advances the receiver's position past g.
func (l *DeliveryLog) Skip(recv uint32, g seq.GlobalSeq) {
	l.Gaps.Inc()
	if st := l.perReceiver[recv]; st != nil && st.declared && g > st.pos {
		l.move(st, g, l.window.at(uint64(g)))
	}
}

// move advances a declared receiver's position to g, whose window entry
// is at, and the horizon with it if the receiver held it.
func (l *DeliveryLog) move(st *receiverState, g seq.GlobalSeq, at *slot) {
	from := st.pos
	st.at.here--
	st.pos, st.at = g, at
	at.here++
	l.front = max(l.front, g)
	if from == l.horizon || l.blocked && l.front >= l.polledAt+page {
		l.advance()
	}
}

// advance raises the horizon to the lowest declared position, or to the
// floor if that is lower, releasing what falls to it: each global's
// content, and its source's send times up to its local.
func (l *DeliveryLog) advance() {
	l.blocked = false
	if l.declared == 0 {
		return
	}
	for {
		if l.window.get(uint64(l.horizon)).here&^recorded != 0 {
			break // a receiver is positioned at the horizon
		}
		if l.Floor != nil && l.horizon >= l.floor {
			if l.front < l.polledAt+page {
				l.blocked = true
				break
			}
			l.pollFloor()
			continue
		}
		next := l.horizon + 1
		if next%page == 0 && l.window.pages[uint64(next)>>pageBits] == nil {
			// Nothing is held in the next page: skip to the next held one.
			if q, ok := l.window.nextPage(uint64(next) >> pageBits); ok {
				next = seq.GlobalSeq(q << pageBits)
			}
		}
		if l.Floor != nil {
			next = min(next, l.floor)
		}
		l.horizon = next
		if c := l.window.get(uint64(next)); c.isRecorded() {
			l.release(c.src, c.local)
		}
	}
	l.window.dropBelow(uint64(l.horizon))
}

// pollFloor reads Floor; the horizon never passes what it returns.
func (l *DeliveryLog) pollFloor() {
	l.floor = max(l.Floor(), l.horizon)
	l.polledAt = l.front
}

// release pops src's send times through local.
func (l *DeliveryLog) release(src seq.NodeID, local seq.LocalSeq) {
	f := l.sendTime[src]
	if f == nil || local < f.first {
		return
	}
	f.first = local + 1
	f.times.dropBelow(uint64(f.first))
}

// Settle reads Floor afresh, releases what the horizon passes, and
// returns how many entries the log still holds: content above the
// horizon and send times not yet popped.
func (l *DeliveryLog) Settle() int {
	if l.Floor != nil {
		l.pollFloor()
	}
	l.advance()
	n := 0
	for q, p := range l.window.pages {
		for i := range p {
			if p[i].isRecorded() && q<<pageBits+uint64(i) > uint64(l.horizon) {
				n++
			}
		}
	}
	for _, f := range l.sendTime {
		for q, p := range f.times.pages {
			for i, s := range p {
				if s != 0 && q<<pageBits+uint64(i) >= uint64(f.first) {
					n++
				}
			}
		}
	}
	return n
}

func (l *DeliveryLog) fail(err error) {
	if l.violation == nil {
		l.violation = err
	}
}

// Err returns the first invariant violation observed, if any.
func (l *DeliveryLog) Err() error { return l.violation }

// Receivers returns the number of receivers that delivered anything.
func (l *DeliveryLog) Receivers() int {
	n := 0
	for _, st := range l.perReceiver {
		if st.seen {
			n++
		}
	}
	return n
}

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

// MinDelivered returns the smallest delivery count among receivers that
// delivered anything (all receivers should converge when the run
// quiesces).
func (l *DeliveryLog) MinDelivered() uint64 {
	first := true
	var min uint64
	for _, st := range l.perReceiver {
		if st.seen && (first || st.delivered < min) {
			min = st.delivered
			first = false
		}
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
