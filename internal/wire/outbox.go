package wire

import (
	"slices"
	"sync/atomic"

	"repro/internal/msg"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// batchFlushBytes caps how much a peer's box accumulates before it stops
// waiting for its window: comfortably one datagram's worth.
const batchFlushBytes = 48_000

// outboxWindow is how long data frames from every group wait in a
// daemon's shared outbox, so contiguous delivery runs produced by
// different scheduler events — and by different groups — share
// datagrams.
const outboxWindow = 1 * sim.Millisecond

// SharedOutbox batches outbound traffic from every group a daemon hosts
// into per-peer, multi-section datagrams. Every group sends for a given
// peer into one box here, so one socket write carries many groups'
// messages — the reason 100 groups do not cost 100× the datagrams.
//
// Every group runs on the daemon's one driver, so the outbox is touched
// from that goroutine only and needs no locks. Only sendErrs is atomic:
// /metrics and /status read it from other goroutines.
//
// Timing model: a flush is a scheduler event — After(0) for urgent
// traffic (end of the current protocol event), After(window) for
// coalescable data-plane traffic. A flush drains the whole box,
// whichever groups filled it. An urgent enqueue into a box already armed
// for its window arms a second, immediate flush and leaves the window
// timer standing. The urgent flush disarms the box, so the next
// coalescable enqueue arms a second window timer while the overtaken
// one still stands: that one fires early, part-way through the new
// window, and flushes whatever the box gathered by then.
//
// That stray early flush is what ends a token hold short under load:
// its datagram wakes the receiving daemon's driver before the
// netpoller's ~1.1 ms quantum (see Driver), and the driver then runs
// the next holder's 200 µs TokenHold event, already due. Stopping the
// overtaken timer cut heavy's datagrams per delivery from 0.284 to
// 0.125 (6 paired runs) and steady's by 36%, but raised heavy's mean
// delivery latency from 2.77 to 3.28 ms, as every hold then ran its
// full quantum. It waits for a hold that knows about demand (ROADMAP
// item 7).
type SharedOutbox struct {
	tr *Transport

	// window is the aggregation window for data-plane messages, in
	// driver virtual time (µs). Zero flushes every box at the end of
	// the enqueuing event.
	window sim.Time

	boxes map[seq.NodeID]*peerBox

	// sendErrs counts flushes the transport rejected.
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

// peerBox accumulates one peer's outbound messages, one section per
// originating group in the order each group first enqueued, so a flush
// emits well-formed sections.
type peerBox struct {
	to    seq.NodeID
	secs  []Section
	bytes int // framed backlog, driving the size cap

	// armed marks a pending flush; asap marks one due at the end of the
	// current event rather than at the end of the window.
	armed, asap bool
}

// section returns group's section in the box, opening one at the end.
func (b *peerBox) section(group uint32) *Section {
	for i := range b.secs {
		if b.secs[i].Group == group {
			return &b.secs[i]
		}
	}
	b.secs = append(b.secs, Section{Group: group})
	return &b.secs[len(b.secs)-1]
}

// NewSharedOutbox builds the daemon-wide outbox over tr. window is the
// data-plane aggregation window (0 = flush per event).
func NewSharedOutbox(tr *Transport, window sim.Time) *SharedOutbox {
	return &SharedOutbox{tr: tr, window: window, boxes: make(map[seq.NodeID]*peerBox)}
}

// urgent reports whether a message must not wait for the batch window:
// everything except bulk data-plane and coalescable control. An Ack that
// reports a gap is urgent too: its sender repairs the hole on arrival.
func urgent(m msg.Message) bool {
	switch m.Kind() {
	case msg.KindData, msg.KindSkip, msg.KindProgress, msg.KindHeartbeat:
		return false
	case msg.KindAck:
		return len(m.(*msg.Ack).Gaps) > 0
	}
	return true
}

// Enqueue adds one message from group for peer to, arming a flush on
// sched if the box needs one. Must run on the goroutine that drives
// sched — inside a scheduler event or a call the driver injected between
// events — like any scheduler use.
func (o *SharedOutbox) Enqueue(sched *sim.Scheduler, group uint32, to seq.NodeID, m msg.Message) {
	o.enqueue(sched, group, to, m, m.WireSize())
}

// enqueue is Enqueue for a caller that has already sized m (the substrate's
// send accounting does): size is len(msg.Encode(m)), and travels beside m
// to the frame planner, so nothing on the send path sizes m again.
func (o *SharedOutbox) enqueue(sched *sim.Scheduler, group uint32, to seq.NodeID, m msg.Message, size int) {
	b := o.boxes[to]
	if b == nil {
		b = &peerBox{to: to}
		o.boxes[to] = b
	}
	if o.tracer.Active() {
		if src, local, global, ok := traceKeyOf(m); ok {
			o.tracer.Span(telemetry.StageEnqueue, group, src, local, global, uint32(to))
		}
	}
	s := b.section(group)
	s.Msgs = append(s.Msgs, m)
	s.sizes = append(s.sizes, size)
	b.bytes += framedSize(size)
	asap := o.window <= 0 || urgent(m) || b.bytes >= batchFlushBytes
	switch {
	case !b.armed:
		b.armed, b.asap = true, asap
		delay := o.window
		if asap {
			delay = 0
		}
		sched.After(delay, func() { o.flush(b) })
	case asap && !b.asap:
		// Something latency-critical joined a windowed box: flush at the
		// end of this event. The window timer stays armed and later
		// drains what arrives in between.
		b.asap = true
		sched.After(0, func() { o.flush(b) })
	}
}

// flush drains the box into one SendSections call and disarms it, so
// the next enqueue arms afresh; a window timer it overtook still stands
// and flushes early (see the timing model above). A flush that finds
// the box empty (an overtaken window timer with nothing new) does
// nothing.
func (o *SharedOutbox) flush(b *peerBox) {
	b.armed, b.asap = false, false
	if len(b.secs) == 0 {
		return
	}
	o.flushBytes.Observe(float64(b.bytes))
	if o.tracer.Active() {
		for _, s := range b.secs {
			for _, m := range s.Msgs {
				if src, local, global, ok := traceKeyOf(m); ok {
					o.tracer.Span(telemetry.StageFlush, s.Group, src, local, global, uint32(b.to))
				}
			}
		}
	}
	if err := o.tr.SendSections(b.to, b.secs); err != nil {
		o.sendErrs.Add(1)
	}
	// SendSections keeps nothing: the section slots are free for reuse.
	clear(b.secs)
	b.secs, b.bytes = b.secs[:0], 0
}

// Drop discards group's unflushed messages for peer to (the member left
// that group's ring; reliability state pointing at it is NE.DropPeer's
// business). Other groups' pending traffic is untouched.
func (o *SharedOutbox) Drop(group uint32, to seq.NodeID) {
	b := o.boxes[to]
	if b == nil {
		return
	}
	i := slices.IndexFunc(b.secs, func(s Section) bool { return s.Group == group })
	if i < 0 {
		return
	}
	for _, n := range b.secs[i].sizes {
		b.bytes -= framedSize(n)
	}
	b.secs = slices.Delete(b.secs, i, i+1)
}

// SendErrs returns the number of flushes the transport rejected.
func (o *SharedOutbox) SendErrs() uint64 { return o.sendErrs.Load() }
