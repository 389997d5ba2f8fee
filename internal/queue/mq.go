// Package queue implements the three buffer structures of the RingNet
// protocol (paper §4.1): MQ, the totally-ordered message queue held by
// every network entity and mobile host; WQ, the per-source working queues
// held by top-ring nodes for messages awaiting ordering; and WT, the
// working table that tracks per-child delivery progress and drives
// garbage collection.
package queue

import (
	"fmt"

	"repro/internal/msg"
	"repro/internal/seq"
)

// Slot is one storage cell of an MQ, carrying the per-message attributes
// of paper §4.1: Received, Waiting, Delivered, and the message itself.
type Slot struct {
	// Received indicates the message body is present.
	Received bool
	// Waiting indicates a retransmission is still awaited. When both
	// Received and Waiting are false the message is "really lost" and,
	// per the paper, is considered delivered.
	Waiting bool
	// Delivered: for an MH, the message reached the application; for a
	// bottom AP, it reached all attached MHs; for any other NE, it
	// reached all children.
	Delivered bool
	// Data is the message body (nil until Received).
	Data *msg.Data
}

// MQ is the message queue of totally-ordered messages, a sliding window
// over global sequence numbers backed by a circular buffer (the paper's
// "sequential storage allocation scheme" with MaxNo slots). MaxNo is the
// hard cap on the window, not an up-front allocation: the ring starts at
// mqInitialSlots and doubles, up to MaxNo, only when a message lands past
// its current length, so an entity pays for the window it actually holds.
//
// Pointer semantics follow the paper:
//
//	ValidFront — oldest delivered message still kept (for retransmission
//	             to children/handed-off MHs); slots below it are freed.
//	Front      — most recently delivered message.
//	Rear       — most recently received message.
//
// Here the pointers are global sequence numbers: the window of live slots
// is (validFront, rear]; front ∈ [validFront, rear]. A slot for global
// sequence g lives at buf[g % len(buf)], and every slot outside the
// window is zero.
type MQ struct {
	maxNo      int
	buf        []Slot        // len grows by doubling to maxNo as the window needs
	validFront seq.GlobalSeq // all slots ≤ validFront are released
	front      seq.GlobalSeq // all slots ≤ front are delivered
	rear       seq.GlobalSeq // highest slot ever written

	// stats
	peakLen  int
	overflow uint64
}

// ErrMQFull is returned when inserting would overwrite an unreleased slot.
var ErrMQFull = fmt.Errorf("queue: MQ full")

// mqInitialSlots is the ring length a new MQ starts with (or MaxNo,
// if smaller).
const mqInitialSlots = 64

// NewMQ returns an MQ whose window may hold up to maxNo slots. maxNo
// must be positive.
func NewMQ(maxNo int) *MQ {
	if maxNo <= 0 {
		panic("queue: non-positive MQ size")
	}
	return &MQ{maxNo: maxNo, buf: make([]Slot, min(maxNo, mqInitialSlots))}
}

// MaxNo returns the window's hard cap.
func (q *MQ) MaxNo() int { return q.maxNo }

// ValidFront, Front, and Rear expose the three pointers.
func (q *MQ) ValidFront() seq.GlobalSeq { return q.validFront }
func (q *MQ) Front() seq.GlobalSeq      { return q.front }
func (q *MQ) Rear() seq.GlobalSeq       { return q.rear }

// Len returns the number of live (unreleased) slots.
func (q *MQ) Len() int { return int(q.rear - q.validFront) }

// PeakLen returns the maximum Len ever observed (buffer-bound metric).
func (q *MQ) PeakLen() int { return q.peakLen }

// Overflows returns how many inserts failed for lack of space.
func (q *MQ) Overflows() uint64 { return q.overflow }

func (q *MQ) slot(g seq.GlobalSeq) *Slot { return &q.buf[uint64(g)%uint64(len(q.buf))] }

// reserve makes the ring long enough for the window (validFront, g]:
// it doubles the length until the window fits, caps it at maxNo, and
// moves the live slots to their places in the new ring. The caller has
// already checked g against maxNo.
func (q *MQ) reserve(g seq.GlobalSeq) {
	need := int(g - q.validFront)
	n := len(q.buf)
	if need <= n {
		return
	}
	for n < need {
		n *= 2
	}
	n = min(n, q.maxNo)
	buf := make([]Slot, n)
	for s := q.validFront + 1; s <= q.rear; s++ {
		buf[uint64(s)%uint64(n)] = *q.slot(s)
	}
	q.buf = buf
}

// inWindow reports whether g is a live slot index.
func (q *MQ) inWindow(g seq.GlobalSeq) bool { return g > q.validFront && g <= q.rear }

// Insert stores an ordered message at its global sequence position.
// Inserting a message at or below ValidFront (already released) or a
// duplicate of a received slot is a harmless no-op, reported as
// (false, nil). A message beyond the window capacity returns ErrMQFull.
func (q *MQ) Insert(d *msg.Data) (bool, error) {
	if d == nil || !d.Ordered() {
		return false, fmt.Errorf("queue: inserting unordered message %v", d)
	}
	g := d.GlobalSeq
	if g <= q.validFront {
		return false, nil // stale duplicate
	}
	if int(g-q.validFront) > q.maxNo {
		q.overflow++
		return false, ErrMQFull
	}
	if g > q.rear {
		q.reserve(g)
		// Initialize any skipped slots as awaited (Waiting).
		for s := q.rear + 1; s < g; s++ {
			*q.slot(s) = Slot{Waiting: true}
		}
		q.rear = g
	}
	sl := q.slot(g)
	if sl.Received {
		return false, nil // duplicate
	}
	delivered := sl.Delivered // a really-lost slot stays delivered
	*sl = Slot{Received: true, Delivered: delivered, Data: d}
	if l := q.Len(); l > q.peakLen {
		q.peakLen = l
	}
	return true, nil
}

// Get returns the slot for g, or nil if g is outside the live window.
// The pointer is valid only until the next Insert or InsertLost, which
// may move the window to a longer ring.
func (q *MQ) Get(g seq.GlobalSeq) *Slot {
	if !q.inWindow(g) {
		return nil
	}
	return q.slot(g)
}

// Data returns the message at g if it is live and received.
func (q *MQ) Data(g seq.GlobalSeq) *msg.Data {
	if sl := q.Get(g); sl != nil && sl.Received {
		return sl.Data
	}
	return nil
}

// Has reports whether g is received.
func (q *MQ) Has(g seq.GlobalSeq) bool { return q.Data(g) != nil }

// SetWaiting marks slot g as awaiting retransmission (or not).
func (q *MQ) SetWaiting(g seq.GlobalSeq, w bool) {
	if sl := q.Get(g); sl != nil && !sl.Received {
		sl.Waiting = w
	}
}

// MarkLost implements the paper's really-lost rule: a slot that is not
// received and no longer waiting is considered delivered.
func (q *MQ) MarkLost(g seq.GlobalSeq) {
	if sl := q.Get(g); sl != nil && !sl.Received {
		sl.Waiting = false
		sl.Delivered = true
	}
}

// InsertLost records g as really lost, extending the window like Insert
// if g is beyond Rear. Stale and already-received slots are no-ops.
func (q *MQ) InsertLost(g seq.GlobalSeq) error {
	if g <= q.validFront {
		return nil
	}
	if int(g-q.validFront) > q.maxNo {
		q.overflow++
		return ErrMQFull
	}
	if g > q.rear {
		q.reserve(g)
		for s := q.rear + 1; s <= g; s++ {
			*q.slot(s) = Slot{Waiting: true}
		}
		q.rear = g
		if l := q.Len(); l > q.peakLen {
			q.peakLen = l
		}
	}
	q.MarkLost(g)
	return nil
}

// NextDeliverable returns the message at front+1 if it is received (or a
// really-lost gap to skip, returned as (nil, true)). ok is false when
// delivery must wait.
func (q *MQ) NextDeliverable() (d *msg.Data, ok bool) {
	g := q.front + 1
	if g > q.rear {
		return nil, false
	}
	sl := q.slot(g)
	switch {
	case sl.Received:
		return sl.Data, true
	case !sl.Waiting && sl.Delivered:
		return nil, true // really lost: skip
	default:
		return nil, false
	}
}

// AdvanceRun advances Front over the entire contiguous deliverable run
// in one slot pass — every slot past Front that is either received or
// really lost — marking each delivered, and returns the run bounds
// [lo, hi] (hi < lo when nothing is deliverable). It replaces a
// per-message NextDeliverable/AdvanceFront pair on the delivery hot
// path; callers fan the run out afterwards via Data(g) (nil ⇒ the slot
// was a really-lost gap).
func (q *MQ) AdvanceRun() (lo, hi seq.GlobalSeq) {
	lo = q.front + 1
	g := lo
	for g <= q.rear {
		sl := q.slot(g)
		if sl.Received || (!sl.Waiting && sl.Delivered) {
			sl.Delivered = true
			g++
			continue
		}
		break
	}
	q.front = g - 1
	return lo, g - 1
}

// AdvanceFront marks front+1 delivered and moves Front. It must only be
// called after NextDeliverable returned ok.
func (q *MQ) AdvanceFront() {
	g := q.front + 1
	if g > q.rear {
		panic("queue: AdvanceFront past Rear")
	}
	q.slot(g).Delivered = true
	q.front = g
}

// ReleaseUpTo advances ValidFront to g (clamped to Front), freeing slots
// whose retention is no longer needed — the caller derives g from WT's
// minimum per-child progress. It returns the number of slots freed.
func (q *MQ) ReleaseUpTo(g seq.GlobalSeq) int {
	if g > q.front {
		g = q.front
	}
	if g <= q.validFront {
		return 0
	}
	freed := int(g - q.validFront)
	for s := q.validFront + 1; s <= g; s++ {
		*q.slot(s) = Slot{}
	}
	q.validFront = g
	return freed
}

// Missing returns the live sequence numbers in (validFront, rear] that are
// neither received nor really-lost, capped at max entries.
func (q *MQ) Missing(max int) []seq.GlobalSeq {
	var out []seq.GlobalSeq
	for g := q.validFront + 1; g <= q.rear && len(out) < max; g++ {
		sl := q.slot(g)
		if !sl.Received && !(sl.Delivered && !sl.Waiting) {
			out = append(out, g)
		}
	}
	return out
}

// ForceFront jumps all three pointers forward to g without delivering,
// abandoning any slots at or below g. Used when a node or MH joins a
// stream mid-way (delivery starts at g+1) or when a handed-off MH resumes
// at a mark past its old position.
func (q *MQ) ForceFront(g seq.GlobalSeq) {
	if g <= q.front {
		return
	}
	hi := g
	if hi > q.rear {
		hi = q.rear
	}
	for s := q.validFront + 1; s <= hi; s++ {
		*q.slot(s) = Slot{}
	}
	q.front = g
	q.validFront = g
	if q.rear < g {
		q.rear = g
	}
}

// ForceRelease advances ValidFront unconditionally to g, forcing Front and
// Rear forward as needed. Equivalent to ForceFront for g beyond Front, and
// to ReleaseUpTo otherwise.
func (q *MQ) ForceRelease(g seq.GlobalSeq) {
	if g > q.front {
		q.ForceFront(g)
		return
	}
	q.ReleaseUpTo(g)
}

// Validate checks the MQ pointer invariants.
func (q *MQ) Validate() error {
	if q.validFront > q.front {
		return fmt.Errorf("queue: ValidFront %d > Front %d", q.validFront, q.front)
	}
	if q.front > q.rear {
		return fmt.Errorf("queue: Front %d > Rear %d", q.front, q.rear)
	}
	if q.Len() > q.maxNo {
		return fmt.Errorf("queue: window %d exceeds MaxNo %d", q.Len(), q.maxNo)
	}
	for g := q.validFront + 1; g <= q.front; g++ {
		if sl := q.slot(g); !sl.Delivered {
			return fmt.Errorf("queue: slot %d below Front not delivered", g)
		}
	}
	return nil
}

func (q *MQ) String() string {
	return fmt.Sprintf("MQ{vf=%d f=%d r=%d len=%d/%d}", q.validFront, q.front, q.rear, q.Len(), q.maxNo)
}
