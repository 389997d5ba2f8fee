package wire

import (
	"sync"
	"sync/atomic"

	"repro/internal/msg"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// batchFlushBytes caps how much a peer's box accumulates before it stops
// waiting for its window: comfortably one datagram's worth.
const batchFlushBytes = 48_000

// SharedOutbox batches outbound traffic from every group a daemon hosts
// into per-peer, multi-section datagrams. Each hosted group runs on its
// own driver goroutine, but they all funnel sends for a given peer into
// one box here, so one socket write carries many groups' messages — the
// reason 100 groups do not cost 100× the datagrams.
//
// Concurrency model: the box is sharded per (peer, group). A group's
// enqueues touch only its own shard, whose mutex is contended by exactly
// two parties — that group's driver and whichever driver flushes the
// box — never by the other 99 groups. A shard that turns non-empty
// pushes itself onto the peer's lock-free dirty stack, so a flush steals
// only shards that actually hold traffic instead of sweeping every
// hosted group. Peer-level state (arming, byte pressure) is atomics.
// Earlier designs serialized all drivers through per-peer mutexes — on
// either the enqueue or the sweep path — and profiling a 100-group
// daemon showed that convoy collapsing throughput to the goroutine
// context-switch rate.
//
// Timing model: a flush is an event on the *enqueuing group's* scheduler
// (After(0) for urgent traffic — end of the current protocol event — or
// After(window) for coalescable data-plane traffic), so each group keeps
// the single-threaded, event-driven batching semantics it had with a
// private outbox. A flush drains the whole box, whichever groups filled
// it; a flush that finds the box already drained by a sibling group's
// timer is a no-op. Timers are never cancelled across schedulers —
// stale ones fire into an empty box.
type SharedOutbox struct {
	tr *Transport

	// window is the aggregation window for data-plane messages, in
	// driver virtual time (µs). Zero flushes every box at the end of
	// the enqueuing event.
	window sim.Time

	boxes sync.Map // seq.NodeID -> *peerBox

	// sendErrs counts flushes the transport rejected; atomic because
	// flushes run on every group's driver goroutine.
	sendErrs atomic.Uint64

	// flushBytes, when attached, observes the bytes drained per
	// non-empty flush (batch occupancy). Nil-safe; nil in the sim path.
	flushBytes *telemetry.Histogram

	// tracer, when attached and active, records outbox_enqueue and
	// outbox_flush spans for sampled Data messages — the two stages that
	// bound how long a message sat in the batch window.
	tracer *telemetry.Tracer
}

// SetFlushHistogram attaches the flush-occupancy histogram. Call before
// any group starts enqueuing.
func (o *SharedOutbox) SetFlushHistogram(h *telemetry.Histogram) { o.flushBytes = h }

// SetTracer attaches the trace plane. Call before any group starts
// enqueuing.
func (o *SharedOutbox) SetTracer(t *telemetry.Tracer) { o.tracer = t }

// peerBox accumulates one peer's outbound messages, segregated by
// originating group so the flush emits well-formed sections.
type peerBox struct {
	to seq.NodeID

	shards sync.Map                   // uint32 (group id) -> *groupShard
	dirty  atomic.Pointer[groupShard] // stack of shards with pending messages

	// bytes is the box-wide backlog estimate driving the size cap.
	bytes atomic.Int64
	// armed marks a pending flush; asap marks it end-of-event rather
	// than end-of-window. A flush clears both BEFORE stealing the
	// shards, so an enqueue racing with the drain can never strand a
	// message: if its append lost the race it re-arms, if it won the
	// steal picks it up.
	armed atomic.Bool
	asap  atomic.Bool
}

// pushDirty adds s to the peer's dirty stack. Callers must have won
// s.queued, so each shard appears at most once and its link field is
// exclusively theirs until a flush detaches the whole stack.
func (b *peerBox) pushDirty(s *groupShard) {
	for {
		head := b.dirty.Load()
		s.next.Store(head)
		if b.dirty.CompareAndSwap(head, s) {
			return
		}
	}
}

// groupShard is one group's pending messages for one peer. Appends come
// from the owning group's driver goroutine only; the mutex exists solely
// to synchronize with the stealing flush.
type groupShard struct {
	group uint32

	mu    sync.Mutex
	msgs  []msg.Message
	sizes []int // each message's encoded size, beside it
	bytes int

	queued atomic.Bool                // on the peer's dirty stack
	next   atomic.Pointer[groupShard] // dirty-stack link
}

// NewSharedOutbox builds the daemon-wide outbox over tr. window is the
// data-plane aggregation window (0 = flush per event).
func NewSharedOutbox(tr *Transport, window sim.Time) *SharedOutbox {
	return &SharedOutbox{tr: tr, window: window}
}

// urgentKind reports whether a message must not wait for the batch
// window: everything except bulk data-plane and coalescable control.
func urgentKind(k msg.Kind) bool {
	switch k {
	case msg.KindData, msg.KindSkip, msg.KindAck,
		msg.KindProgress, msg.KindHeartbeat:
		return false
	}
	return true
}

func (o *SharedOutbox) box(to seq.NodeID) *peerBox {
	if b, ok := o.boxes.Load(to); ok {
		return b.(*peerBox)
	}
	b, _ := o.boxes.LoadOrStore(to, &peerBox{to: to})
	return b.(*peerBox)
}

func (b *peerBox) shard(group uint32) *groupShard {
	if s, ok := b.shards.Load(group); ok {
		return s.(*groupShard)
	}
	s, _ := b.shards.LoadOrStore(group, &groupShard{group: group})
	return s.(*groupShard)
}

// Enqueue adds one message from group for peer to, arming a flush on
// sched — the enqueuing group's scheduler — if the box needs one. Must
// run on that group's driver goroutine — inside a scheduler event or a
// call the driver injected between events — like any scheduler use.
func (o *SharedOutbox) Enqueue(sched *sim.Scheduler, group uint32, to seq.NodeID, m msg.Message) {
	o.enqueue(sched, group, to, m, m.WireSize())
}

// enqueue is Enqueue for a caller that has already sized m (the substrate's
// send accounting does): size is len(msg.Encode(m)), and travels beside m
// to the frame planner, so nothing on the send path sizes m again.
func (o *SharedOutbox) enqueue(sched *sim.Scheduler, group uint32, to seq.NodeID, m msg.Message, size int) {
	b := o.box(to)
	s := b.shard(group)
	if o.tracer.Active() {
		if src, local, global, ok := traceKeyOf(m); ok {
			o.tracer.Span(telemetry.StageEnqueue, group, src, local, global, uint32(to))
		}
	}
	framed := framedSize(size)
	s.mu.Lock()
	s.msgs = append(s.msgs, m)
	s.sizes = append(s.sizes, size)
	s.bytes += framed
	s.mu.Unlock()
	if s.queued.CompareAndSwap(false, true) {
		b.pushDirty(s)
	}
	total := b.bytes.Add(int64(framed))
	asap := o.window <= 0 || urgentKind(m.Kind()) || total >= batchFlushBytes
	arm := false
	var delay sim.Time
	if b.armed.CompareAndSwap(false, true) {
		arm = true
		if asap {
			b.asap.Store(true)
		} else {
			delay = o.window
		}
	} else if asap && b.asap.CompareAndSwap(false, true) {
		// Upgrade a windowed flush: something latency-critical joined
		// the box. The windowed timer (possibly on another group's
		// scheduler, where we cannot cancel it) will fire into an empty
		// box and no-op. In the window where the arming racer has not
		// yet recorded its urgency, both schedule — the loser's flush
		// finds nothing.
		arm = true
	}
	if arm {
		sched.After(delay, func() { o.flush(sched, b) })
	}
}

// flush drains the box's dirty shards into one SendSections call. Runs
// on whichever group's driver armed it; sched is that driver's
// scheduler, used to arm a follow-up flush when a racing append lands
// behind the steal.
func (o *SharedOutbox) flush(sched *sim.Scheduler, b *peerBox) {
	// Disarm before stealing (see peerBox.armed).
	b.asap.Store(false)
	b.armed.Store(false)
	head := b.dirty.Swap(nil)
	var secs []Section
	var stolen int64
	for s := head; s != nil; {
		next := s.next.Load()
		s.next.Store(nil)
		s.mu.Lock()
		msgs, sizes := s.msgs, s.sizes
		stolen += int64(s.bytes)
		s.msgs, s.sizes, s.bytes = nil, nil, 0
		s.mu.Unlock()
		s.queued.Store(false)
		// An append that slipped in between the steal and the queued
		// reset saw queued==true and skipped its push: re-queue the
		// shard for the next flush.
		s.mu.Lock()
		pending := len(s.msgs) > 0
		s.mu.Unlock()
		if pending && s.queued.CompareAndSwap(false, true) {
			b.pushDirty(s)
		}
		if len(msgs) > 0 {
			if o.tracer.Active() {
				for _, m := range msgs {
					if src, local, global, ok := traceKeyOf(m); ok {
						o.tracer.Span(telemetry.StageFlush, s.group, src, local, global, uint32(b.to))
					}
				}
			}
			secs = append(secs, Section{Group: s.group, Msgs: msgs, sizes: sizes})
		}
		s = next
	}
	if stolen != 0 {
		b.bytes.Add(-stolen)
		o.flushBytes.Observe(float64(stolen))
	}
	// A shard re-queued above (or pushed by a racer whose arm lost to
	// our disarm) must not wait for unrelated traffic: make sure a
	// flush is armed whenever the dirty stack is non-empty.
	if b.dirty.Load() != nil && b.armed.CompareAndSwap(false, true) {
		b.asap.Store(true)
		sched.After(0, func() { o.flush(sched, b) })
	}
	if len(secs) == 0 {
		return
	}
	if err := o.tr.SendSections(b.to, secs); err != nil {
		o.sendErrs.Add(1)
	}
}

// Drop discards group's unflushed messages for peer to (the member left
// that group's ring; reliability state pointing at it is NE.DropPeer's
// business). Other groups' pending traffic is untouched. The
// shard may stay on the dirty stack; the next flush skips it empty.
func (o *SharedOutbox) Drop(group uint32, to seq.NodeID) {
	b, ok := o.boxes.Load(to)
	if !ok {
		return
	}
	s, ok := b.(*peerBox).shards.Load(group)
	if !ok {
		return
	}
	sh := s.(*groupShard)
	sh.mu.Lock()
	dropped := int64(sh.bytes)
	sh.msgs, sh.sizes, sh.bytes = nil, nil, 0
	sh.mu.Unlock()
	if dropped != 0 {
		b.(*peerBox).bytes.Add(-dropped)
	}
}

// SendErrs returns the number of flushes the transport rejected.
func (o *SharedOutbox) SendErrs() uint64 { return o.sendErrs.Load() }
