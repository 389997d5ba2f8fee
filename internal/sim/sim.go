// Package sim provides a deterministic discrete-event simulation kernel.
//
// All protocol logic in this repository runs on virtual time supplied by a
// Scheduler. Events are executed in (time, sequence) order, so two runs
// with the same seed and the same workload produce byte-identical traces.
// Virtual time is measured in microseconds (Time).
package sim

import (
	"errors"
	"fmt"
	"math/bits"
)

// Time is virtual time in microseconds since the start of the simulation.
type Time int64

// Common durations, in virtual microseconds.
const (
	Microsecond Time = 1
	Millisecond Time = 1000
	Second      Time = 1000 * 1000
)

// String renders a Time as seconds with microsecond precision.
func (t Time) String() string {
	return fmt.Sprintf("%d.%06ds", int64(t)/1e6, int64(t)%1e6)
}

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e6 }

// Event is a scheduled callback: either a plain closure fn, or a static
// function fnc applied to arg (the closure-free form used by hot paths to
// avoid allocating a closure per event).
type event struct {
	at   Time
	seq  uint64 // tie-breaker: insertion order
	fn   func()
	fnc  func(any)
	arg  any
	gen  uint64 // incremented on recycle; detects stale Timer handles
	dead bool   // cancelled
}

// less is the scheduler's total execution order.
func (e *event) less(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Timer is a handle to a scheduled event that may be cancelled. The zero
// Timer is valid and behaves as already-fired. Timers are values: they
// carry the event's generation so a recycled event is never confused with
// the one the handle was issued for.
type Timer struct {
	ev  *event
	s   *Scheduler
	gen uint64
}

// Stop cancels the timer. It reports whether the timer was still pending.
// Cancellation is lazy: the event stays in whatever queue structure holds
// it (wheel bucket, current-slot heap, or overflow heap) and is recycled
// when the scheduler next encounters it.
func (t *Timer) Stop() bool {
	if t == nil || t.ev == nil || t.ev.gen != t.gen || t.ev.dead {
		return false
	}
	t.ev.dead = true
	t.ev.fn = nil
	t.ev.fnc = nil
	t.ev.arg = nil
	t.s.live--
	return true
}

// Pending reports whether the timer has neither fired nor been stopped.
func (t *Timer) Pending() bool {
	return t != nil && t.ev != nil && t.ev.gen == t.gen && !t.ev.dead
}

// fourHeap is a 4-ary min-heap of events ordered by (at, seq). Compared
// to the binary container/heap it halves the tree depth, avoids the
// interface boxing of heap.Push/Pop, and keeps sift-down children on one
// cache line.
type fourHeap []*event

func (h *fourHeap) push(ev *event) {
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !q[i].less(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *fourHeap) pop() *event {
	q := *h
	n := len(q) - 1
	ev := q[0]
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		hi := c + 4
		if hi > n {
			hi = n
		}
		for j := c + 1; j < hi; j++ {
			if q[j].less(q[m]) {
				m = j
			}
		}
		if !q[m].less(q[i]) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	return ev
}

// Calendar-queue geometry. Near-future events live in a timing wheel of
// wheelSlots buckets, each slotWidth = 2^slotShift microseconds wide, so
// the wheel spans wheelSlots<<slotShift (≈16.4 ms) of virtual time ahead
// of the cursor. Events beyond that horizon wait in the 4-ary overflow
// heap and are promoted into the wheel as the cursor advances. The hot
// protocol delays (per-hop latency, token hold, τ ticks) all land inside
// the wheel; only slow timers (heartbeats, failure windows) touch the
// overflow heap.
const (
	slotShift  = 6 // 64 µs per slot
	wheelSlots = 256
	wheelMask  = wheelSlots - 1
)

// Scheduler is a discrete-event executor over virtual time.
// The zero value is ready to use.
//
// The pending-event store is a calendar queue: a wheel of wheelSlots
// buckets indexed by (at>>slotShift) & wheelMask, an occupancy bitmap for
// O(1) next-slot scans, a small 4-ary heap holding the slot currently
// being drained (exact (time, seq) order within a slot), and a 4-ary
// overflow heap for events past the wheel horizon. All structures order
// events by (at, seq), so execution order is byte-identical to a single
// global priority queue.
type Scheduler struct {
	now     Time
	seq     uint64
	running bool
	stopped bool

	// curSlot is the absolute slot number (at>>slotShift) the cursor is
	// on. Invariant: curSlot <= at>>slotShift for every pending event —
	// the cursor trails the earliest pending event, and new events are
	// clamped to >= now, whose slot the cursor never passes.
	curSlot    int64
	buckets    [wheelSlots][]*event
	occupied   [wheelSlots / 64]uint64 // bitmap: bucket i non-empty
	wheelCount int                     // events stored in buckets
	cur        fourHeap                // events of slot curSlot being drained
	overflow   fourHeap                // events at or past the wheel horizon

	// live counts pending non-cancelled events so Len is O(1): it is
	// incremented on schedule and decremented on fire or Stop.
	live int
	// free recycles fired/cancelled events; generations on the events
	// keep outstanding Timer handles from resurrecting them.
	free []*event
	// Executed counts events that have run, for progress reporting and
	// runaway detection.
	Executed uint64
	// MaxEvents, when non-zero, aborts Run with ErrEventBudget once
	// Executed exceeds it.
	MaxEvents uint64
}

// ErrEventBudget is returned by Run when MaxEvents is exhausted.
var ErrEventBudget = errors.New("sim: event budget exhausted")

// NewScheduler returns an empty scheduler at time zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Len returns the number of pending (non-cancelled) events.
func (s *Scheduler) Len() int { return s.live }

// place files ev into the wheel or the overflow heap. The caller
// guarantees ev.at>>slotShift >= s.curSlot (see the curSlot invariant).
func (s *Scheduler) place(ev *event) {
	abs := int64(ev.at) >> slotShift
	if abs >= s.curSlot+wheelSlots {
		s.overflow.push(ev)
		return
	}
	i := int(abs & wheelMask)
	s.buckets[i] = append(s.buckets[i], ev)
	s.occupied[i>>6] |= 1 << uint(i&63)
	s.wheelCount++
}

// alloc takes an event from the freelist or allocates a fresh one, stamps
// it, and files it into the calendar queue.
func (s *Scheduler) alloc(at Time) *event {
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		ev.dead = false
	} else {
		ev = &event{}
	}
	ev.at = at
	ev.seq = s.seq
	s.seq++
	s.live++
	s.place(ev)
	return ev
}

// recycle returns a popped event to the freelist for reuse.
func (s *Scheduler) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.fnc = nil
	ev.arg = nil
	s.free = append(s.free, ev)
}

// migrateCur moves the cursor slot's bucket into the current-slot heap,
// recycling cancelled events on the way. Events scheduled into the slot
// while it is being drained land in the bucket again and are migrated by
// the next pop, so intra-slot (time, seq) order is always exact.
func (s *Scheduler) migrateCur() {
	i := int(s.curSlot & wheelMask)
	if s.occupied[i>>6]&(1<<uint(i&63)) == 0 {
		return
	}
	b := s.buckets[i]
	for j, ev := range b {
		b[j] = nil
		s.wheelCount--
		if ev.dead {
			s.recycle(ev)
			continue
		}
		s.cur.push(ev)
	}
	s.buckets[i] = b[:0]
	s.occupied[i>>6] &^= 1 << uint(i&63)
}

// nextOccupied returns the index of the first occupied bucket at or after
// start in circular order. At least one bucket must be occupied.
func (s *Scheduler) nextOccupied(start int) int {
	w := start >> 6
	mask := ^uint64(0) << uint(start&63)
	for {
		if b := s.occupied[w] & mask; b != 0 {
			return w<<6 + bits.TrailingZeros64(b)
		}
		w = (w + 1) % len(s.occupied)
		mask = ^uint64(0)
	}
}

// advanceTo moves the cursor to absolute slot abs (monotone) and promotes
// overflow events that now fall inside the wheel horizon. Promoted events
// sit at least wheelSlots-1 slots ahead of the old cursor, so they always
// land at or ahead of the new cursor position; place files them into
// their wheel bucket since they are below the new horizon by the loop
// condition.
func (s *Scheduler) advanceTo(abs int64) {
	s.curSlot = abs
	for len(s.overflow) > 0 {
		top := s.overflow[0]
		if int64(top.at)>>slotShift >= abs+wheelSlots {
			break
		}
		s.overflow.pop()
		if top.dead {
			s.recycle(top)
			continue
		}
		s.place(top)
	}
}

// pop removes and returns the next live event in (at, seq) order, or nil
// if none is pending.
func (s *Scheduler) pop() *event {
	for {
		// Fold any bucket events for the cursor's own slot (including
		// ones scheduled since the last migration) into the slot heap.
		s.migrateCur()
		for len(s.cur) > 0 {
			ev := s.cur.pop()
			if ev.dead {
				s.recycle(ev)
				continue
			}
			return ev
		}
		if s.wheelCount > 0 {
			cur := int(s.curSlot & wheelMask)
			idx := s.nextOccupied((cur + 1) & wheelMask)
			d := int64((idx - cur) & wheelMask)
			s.advanceTo(s.curSlot + d)
			continue
		}
		// Wheel drained: jump the cursor to the earliest overflow event.
		for len(s.overflow) > 0 && s.overflow[0].dead {
			s.recycle(s.overflow.pop())
		}
		if len(s.overflow) == 0 {
			// Nothing pending anywhere. Re-anchor the cursor to the
			// clock so future scheduling at the present lands ahead of
			// it (the cursor may have out-run now while draining
			// cancelled events).
			s.curSlot = int64(s.now) >> slotShift
			return nil
		}
		s.advanceTo(int64(s.overflow[0].at) >> slotShift)
	}
}

// bucketMin returns the earliest live event time in bucket i.
func (s *Scheduler) bucketMin(i int) (Time, bool) {
	var best Time
	found := false
	for _, ev := range s.buckets[i] {
		if ev.dead {
			continue
		}
		if !found || ev.at < best {
			best = ev.at
			found = true
		}
	}
	return best, found
}

// peek returns the execution time of the next live event without
// disturbing the cursor. It may recycle cancelled events it encounters at
// heap tops, which never changes ordering.
func (s *Scheduler) peek() (Time, bool) {
	for len(s.cur) > 0 && s.cur[0].dead {
		s.recycle(s.cur.pop())
	}
	var best Time
	ok := false
	if len(s.cur) > 0 {
		best, ok = s.cur[0].at, true
	}
	// The cursor slot's bucket may hold events scheduled after the slot
	// began draining; they can precede the slot heap's top.
	cur := int(s.curSlot & wheelMask)
	if s.occupied[cur>>6]&(1<<uint(cur&63)) != 0 {
		if t, live := s.bucketMin(cur); live && (!ok || t < best) {
			best, ok = t, true
		}
	}
	if ok {
		return best, true
	}
	if s.wheelCount > 0 {
		// Walk occupied buckets in circular (= absolute time) order.
		// Buckets hold a single 2^slotShift time range each, so the
		// first bucket with a live event contains the minimum.
		prevD := 0
		p := (cur + 1) & wheelMask
		for {
			idx := s.nextOccupied(p)
			d := (idx - cur) & wheelMask
			if d <= prevD {
				break // wrapped past the cursor: only dead events left
			}
			if t, live := s.bucketMin(idx); live {
				return t, true
			}
			prevD = d
			p = (idx + 1) & wheelMask
		}
	}
	for len(s.overflow) > 0 && s.overflow[0].dead {
		s.recycle(s.overflow.pop())
	}
	if len(s.overflow) > 0 {
		return s.overflow[0].at, true
	}
	return 0, false
}

// NextAt returns the execution time of the earliest pending event, if
// any, without executing it. Real-time drivers (internal/wire) use it to
// sleep exactly until the next timer is due instead of polling.
func (s *Scheduler) NextAt() (Time, bool) { return s.peek() }

// At schedules fn to run at absolute virtual time at. Scheduling in the
// past is clamped to the present. It returns a cancellable Timer.
func (s *Scheduler) At(at Time, fn func()) Timer {
	if fn == nil {
		panic("sim: nil event function")
	}
	if at < s.now {
		at = s.now
	}
	ev := s.alloc(at)
	ev.fn = fn
	return Timer{ev: ev, s: s, gen: ev.gen}
}

// After schedules fn to run delay from now. Negative delays are clamped.
func (s *Scheduler) After(delay Time, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	return s.At(s.now+delay, fn)
}

// AtCall schedules fn(arg) at absolute virtual time at. Unlike At it
// needs no closure: with a static fn and a pointer-shaped arg, scheduling
// is allocation-free (events themselves are recycled), which matters on
// the per-message hot paths.
func (s *Scheduler) AtCall(at Time, fn func(any), arg any) Timer {
	if fn == nil {
		panic("sim: nil event function")
	}
	if at < s.now {
		at = s.now
	}
	ev := s.alloc(at)
	ev.fnc = fn
	ev.arg = arg
	return Timer{ev: ev, s: s, gen: ev.gen}
}

// AfterCall schedules fn(arg) delay from now. Negative delays are clamped.
func (s *Scheduler) AfterCall(delay Time, fn func(any), arg any) Timer {
	if delay < 0 {
		delay = 0
	}
	return s.AtCall(s.now+delay, fn, arg)
}

// Every schedules fn to run periodically with the given period, starting
// one period from now. Stop the returned Ticker to cancel. period must be
// positive.
func (s *Scheduler) Every(period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	t := &Ticker{s: s, period: period, fn: fn}
	t.arm()
	return t
}

// Ticker repeatedly schedules a callback until stopped.
type Ticker struct {
	s       *Scheduler
	period  Time
	fn      func()
	timer   Timer
	stopped bool
}

func (t *Ticker) arm() {
	t.timer = t.s.After(t.period, func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	})
}

// Stop cancels the ticker.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.timer.Stop()
}

// Step executes the single next pending event, if any, advancing the
// clock. It reports whether an event was executed.
func (s *Scheduler) Step() bool {
	ev := s.pop()
	if ev == nil {
		return false
	}
	s.now = ev.at
	ev.dead = true
	fn, fnc, arg := ev.fn, ev.fnc, ev.arg
	s.recycle(ev)
	s.live--
	s.Executed++
	if fn != nil {
		fn()
	} else {
		fnc(arg)
	}
	return true
}

// Run executes events until no events remain or the clock passes until.
// Events scheduled exactly at until are executed. It returns the number of
// events executed and an error only if the event budget was exhausted.
func (s *Scheduler) Run(until Time) (int, error) {
	if s.running {
		panic("sim: re-entrant Run")
	}
	s.running = true
	defer func() { s.running = false }()
	n := 0
	for {
		at, ok := s.peek()
		if !ok || at > until {
			break
		}
		s.Step()
		n++
		if s.MaxEvents != 0 && s.Executed > s.MaxEvents {
			return n, ErrEventBudget
		}
		if s.stopped {
			s.stopped = false
			break
		}
	}
	// Advance the clock to until so repeated Run calls observe
	// monotonic time even when the event queue drains early.
	if s.now < until {
		s.now = until
	}
	return n, nil
}

// RunAll executes events until the queue drains. Use MaxEvents to bound
// runaway simulations.
func (s *Scheduler) RunAll() (int, error) {
	n := 0
	for {
		if !s.Step() {
			return n, nil
		}
		n++
		if s.MaxEvents != 0 && s.Executed > s.MaxEvents {
			return n, ErrEventBudget
		}
		if s.stopped {
			s.stopped = false
			return n, nil
		}
	}
}

// Stop makes the innermost Run/RunAll return after the current event.
func (s *Scheduler) Stop() { s.stopped = true }
