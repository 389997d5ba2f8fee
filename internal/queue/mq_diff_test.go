package queue

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/msg"
	"repro/internal/seq"
)

// refMQ is the MQ as it was before its ring grew on demand: all MaxNo
// slots allocated up front and indexed by g % MaxNo. The differential
// tests below run it beside MQ; every observable result must agree.
type refMQ struct {
	maxNo      int
	buf        []Slot
	validFront seq.GlobalSeq
	front      seq.GlobalSeq
	rear       seq.GlobalSeq
	peakLen    int
	overflow   uint64
}

func newRefMQ(maxNo int) *refMQ { return &refMQ{maxNo: maxNo, buf: make([]Slot, maxNo)} }

func (q *refMQ) Len() int                      { return int(q.rear - q.validFront) }
func (q *refMQ) slot(g seq.GlobalSeq) *Slot    { return &q.buf[uint64(g)%uint64(q.maxNo)] }
func (q *refMQ) inWindow(g seq.GlobalSeq) bool { return g > q.validFront && g <= q.rear }

func (q *refMQ) Get(g seq.GlobalSeq) *Slot {
	if !q.inWindow(g) {
		return nil
	}
	return q.slot(g)
}

func (q *refMQ) Data(g seq.GlobalSeq) *msg.Data {
	if sl := q.Get(g); sl != nil && sl.Received {
		return sl.Data
	}
	return nil
}

func (q *refMQ) SetWaiting(g seq.GlobalSeq, w bool) {
	if sl := q.Get(g); sl != nil && !sl.Received {
		sl.Waiting = w
	}
}

func (q *refMQ) Insert(d *msg.Data) (bool, error) {
	if d == nil || !d.Ordered() {
		return false, fmt.Errorf("queue: inserting unordered message %v", d)
	}
	g := d.GlobalSeq
	if g <= q.validFront {
		return false, nil
	}
	if int(g-q.validFront) > q.maxNo {
		q.overflow++
		return false, ErrMQFull
	}
	if g > q.rear {
		for s := q.rear + 1; s < g; s++ {
			*q.slot(s) = Slot{Waiting: true}
		}
		q.rear = g
	}
	sl := q.slot(g)
	if sl.Received {
		return false, nil
	}
	delivered := sl.Delivered
	*sl = Slot{Received: true, Delivered: delivered, Data: d}
	if l := q.Len(); l > q.peakLen {
		q.peakLen = l
	}
	return true, nil
}

func (q *refMQ) MarkLost(g seq.GlobalSeq) {
	if sl := q.Get(g); sl != nil && !sl.Received {
		sl.Waiting = false
		sl.Delivered = true
	}
}

func (q *refMQ) InsertLost(g seq.GlobalSeq) error {
	if g <= q.validFront {
		return nil
	}
	if int(g-q.validFront) > q.maxNo {
		q.overflow++
		return ErrMQFull
	}
	if g > q.rear {
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

func (q *refMQ) NextDeliverable() (*msg.Data, bool) {
	g := q.front + 1
	if g > q.rear {
		return nil, false
	}
	sl := q.slot(g)
	switch {
	case sl.Received:
		return sl.Data, true
	case !sl.Waiting && sl.Delivered:
		return nil, true
	default:
		return nil, false
	}
}

func (q *refMQ) AdvanceRun() (lo, hi seq.GlobalSeq) {
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

func (q *refMQ) AdvanceFront() {
	g := q.front + 1
	q.slot(g).Delivered = true
	q.front = g
}

func (q *refMQ) ReleaseUpTo(g seq.GlobalSeq) int {
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

func (q *refMQ) Missing(max int) []seq.GlobalSeq {
	var out []seq.GlobalSeq
	for g := q.validFront + 1; g <= q.rear && len(out) < max; g++ {
		sl := q.slot(g)
		if !sl.Received && !(sl.Delivered && !sl.Waiting) {
			out = append(out, g)
		}
	}
	return out
}

func (q *refMQ) ForceFront(g seq.GlobalSeq) {
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

func (q *refMQ) ForceRelease(g seq.GlobalSeq) {
	if g > q.front {
		q.ForceFront(g)
		return
	}
	q.ReleaseUpTo(g)
}

func (q *refMQ) Validate() error {
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

// mqPair is one MQ and its reference, driven through the same
// operations.
type mqPair struct {
	t   testing.TB
	q   *MQ
	ref *refMQ
	// ringLens records every ring length q has had.
	ringLens map[int]bool
}

func newMQPair(t testing.TB, maxNo int) *mqPair {
	p := &mqPair{t: t, q: NewMQ(maxNo), ref: newRefMQ(maxNo), ringLens: map[int]bool{}}
	p.ringLens[len(p.q.buf)] = true
	return p
}

// Operation codes of mqPair.step (an op byte is taken modulo numOps;
// Insert has two codes so that random streams fill the window), and
// the target modes it reads.
const (
	opInsert byte = iota
	opInsert2
	opInsertLost
	opAdvanceRun
	opRelease
	opForceFront
	opForceRelease
	opMarkLost
	opSetWaiting
	opMissing
	opGet
	opNextDeliverable
	numOps

	modeNearRear byte = 0
	modeWindow   byte = 1
)

// target picks a global sequence number relative to the reference's
// pointers: mode selects near Rear, anywhere up to just past the cap,
// stale, around Front, or far past Rear.
func (p *mqPair) target(mode byte, b uint16) seq.GlobalSeq {
	r := p.ref
	var g int64
	switch mode % 5 {
	case 0:
		g = int64(r.rear) + int64(b%4)
	case 1:
		g = int64(r.validFront) + 1 + int64(b)%int64(r.maxNo+2)
	case 2:
		g = int64(r.validFront) - int64(b%3)
	case 3:
		g = int64(r.front) - 2 + int64(b%8)
	default:
		g = int64(r.rear) + int64(b)
	}
	return seq.GlobalSeq(max(g, 0))
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// step applies one operation to both queues and fails on the first
// difference in what it returns or in the state it leaves.
func (p *mqPair) step(op, mode byte, b uint16) {
	t, q, ref := p.t, p.q, p.ref
	t.Helper()
	g := p.target(mode, b)
	var what string
	switch op % numOps {
	case opInsert, opInsert2:
		d := &msg.Data{Group: 1, SourceNode: 1, LocalSeq: seq.LocalSeq(g), OrderingNode: 1, GlobalSeq: g}
		ok, err := q.Insert(d)
		rok, rerr := ref.Insert(d)
		what = fmt.Sprintf("Insert(%d)", g)
		if ok != rok || errText(err) != errText(rerr) {
			t.Fatalf("%s = (%v, %v), reference (%v, %v)", what, ok, err, rok, rerr)
		}
	case opInsertLost:
		err, rerr := q.InsertLost(g), ref.InsertLost(g)
		what = fmt.Sprintf("InsertLost(%d)", g)
		if errText(err) != errText(rerr) {
			t.Fatalf("%s = %v, reference %v", what, err, rerr)
		}
	case opAdvanceRun:
		lo, hi := q.AdvanceRun()
		rlo, rhi := ref.AdvanceRun()
		what = "AdvanceRun"
		if lo != rlo || hi != rhi {
			t.Fatalf("AdvanceRun = [%d, %d], reference [%d, %d]", lo, hi, rlo, rhi)
		}
	case opRelease:
		n, rn := q.ReleaseUpTo(g), ref.ReleaseUpTo(g)
		what = fmt.Sprintf("ReleaseUpTo(%d)", g)
		if n != rn {
			t.Fatalf("%s = %d, reference %d", what, n, rn)
		}
	case opForceFront:
		q.ForceFront(g)
		ref.ForceFront(g)
		what = fmt.Sprintf("ForceFront(%d)", g)
	case opForceRelease:
		q.ForceRelease(g)
		ref.ForceRelease(g)
		what = fmt.Sprintf("ForceRelease(%d)", g)
	case opMarkLost:
		q.MarkLost(g)
		ref.MarkLost(g)
		what = fmt.Sprintf("MarkLost(%d)", g)
	case opSetWaiting:
		w := b&0x100 != 0
		q.SetWaiting(g, w)
		ref.SetWaiting(g, w)
		what = fmt.Sprintf("SetWaiting(%d, %v)", g, w)
	case opMissing:
		n := int(b % 32)
		got, want := q.Missing(n), ref.Missing(n)
		what = fmt.Sprintf("Missing(%d)", n)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s = %v, reference %v", what, got, want)
		}
	case opGet:
		what = fmt.Sprintf("Get(%d)", g)
		sl, rsl := q.Get(g), ref.Get(g)
		if (sl == nil) != (rsl == nil) || sl != nil && *sl != *rsl {
			t.Fatalf("%s = %+v, reference %+v", what, sl, rsl)
		}
		if q.Data(g) != ref.Data(g) || q.Has(g) != (ref.Data(g) != nil) {
			t.Fatalf("Data/Has(%d) disagree with the reference", g)
		}
	case opNextDeliverable:
		d, ok := q.NextDeliverable()
		rd, rok := ref.NextDeliverable()
		what = "NextDeliverable+AdvanceFront"
		if d != rd || ok != rok {
			t.Fatalf("NextDeliverable = (%v, %v), reference (%v, %v)", d, ok, rd, rok)
		}
		if ok {
			q.AdvanceFront()
			ref.AdvanceFront()
		}
	}
	p.ringLens[len(q.buf)] = true
	p.compare(what)
}

// compare fails unless q and its reference expose the same state, and
// q's ring is a doubling of its starting length (or MaxNo) that holds
// the window and is zero outside it.
func (p *mqPair) compare(after string) {
	t, q, ref := p.t, p.q, p.ref
	t.Helper()
	if q.ValidFront() != ref.validFront || q.Front() != ref.front || q.Rear() != ref.rear ||
		q.Len() != ref.Len() || q.PeakLen() != ref.peakLen || q.Overflows() != ref.overflow || q.MaxNo() != ref.maxNo {
		t.Fatalf("after %s: %v, reference vf=%d f=%d r=%d peak=%d overflow=%d; got peak=%d overflow=%d",
			after, q, ref.validFront, ref.front, ref.rear, ref.peakLen, ref.overflow, q.PeakLen(), q.Overflows())
	}
	if errText(q.Validate()) != errText(ref.Validate()) {
		t.Fatalf("after %s: Validate = %v, reference %v", after, q.Validate(), ref.Validate())
	}
	for g := ref.validFront + 1; g <= ref.rear; g++ {
		if sl, rsl := q.Get(g), ref.Get(g); *sl != *rsl {
			t.Fatalf("after %s: slot %d = %+v, reference %+v", after, g, *sl, *rsl)
		}
	}
	n := len(q.buf)
	if n < q.Len() || n > q.maxNo || n != q.maxNo && n&(n-1) != 0 {
		t.Fatalf("after %s: ring length %d for window %d, MaxNo %d", after, n, q.Len(), q.maxNo)
	}
	live := 0
	for i := range q.buf {
		if q.buf[i] != (Slot{}) {
			live++
		}
	}
	if live > q.Len() {
		t.Fatalf("after %s: %d non-zero slots in a window of %d", after, live, q.Len())
	}
}

// wantRingLens lists the ring lengths an MQ of maxNo passes through on
// its way to a full window: the start length, each doubling, MaxNo.
func wantRingLens(maxNo int) []int {
	var out []int
	for n := min(maxNo, mqInitialSlots); ; n *= 2 {
		out = append(out, min(n, maxNo))
		if n >= maxNo {
			return out
		}
	}
}

// stream delivers a window that stays inside the starting ring for n
// inserts, so the live window wraps the ring before it first grows.
func (p *mqPair) stream(rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		p.step(opInsert, modeNearRear, uint16(1+rng.Intn(2)))
		if p.ref.Len() >= len(p.q.buf)/2 {
			p.drain(rng, true)
		}
	}
}

// fill widens the window slot by slot until it holds MaxNo, then
// inserts one past the cap.
func (p *mqPair) fill(rng *rand.Rand) {
	for p.ref.Len() < p.ref.maxNo {
		op := opInsert
		if rng.Intn(8) == 0 {
			op = opInsertLost
		}
		p.step(op, modeNearRear, uint16(rng.Intn(4)))
	}
	p.step(opInsert, modeWindow, uint16(p.ref.maxNo)) // ErrMQFull
}

// drain really-loses the missing slots (all of them, or about half),
// delivers the run that opens, and releases up to Front.
func (p *mqPair) drain(rng *rand.Rand, all bool) {
	for _, g := range p.ref.Missing(p.ref.maxNo) {
		if all || rng.Intn(2) == 0 {
			p.step(opMarkLost, modeWindow, uint16(g-p.ref.validFront-1))
		}
	}
	p.step(opAdvanceRun, 0, 0)
	p.step(opRelease, modeWindow, uint16(p.ref.front-p.ref.validFront-1))
}

// TestMQMatchesFixedRing runs the on-demand MQ beside the fixed-ring
// reference. Each pair first streams a small window until it has
// wrapped the starting ring, then alternates fills that widen the
// window slot by slot through every doubling up to MaxNo (including
// MaxNo values that are not powers of two), drains that deliver,
// really-lose and release, and churn that mixes every operation —
// stale and overflowing inserts, Front/ValidFront jumps, Get, Missing,
// Validate.
func TestMQMatchesFixedRing(t *testing.T) {
	for _, maxNo := range []int{1, 3, 64, 65, 100, 200, 1000, 1024} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("maxNo=%d/seed=%d", maxNo, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*7919 + int64(maxNo)))
				p := newMQPair(t, maxNo)
				p.stream(rng, 3*mqInitialSlots+rng.Intn(mqInitialSlots))
				for phase := 0; phase < 12; phase++ {
					switch phase % 3 {
					case 0:
						p.fill(rng)
					case 1:
						p.drain(rng, phase%2 == 0)
					default:
						for i := 0; i < 4*maxNo+50; i++ {
							p.step(byte(rng.Intn(int(numOps))), byte(rng.Intn(5)), uint16(rng.Intn(1<<16)))
						}
					}
				}
				for _, n := range wantRingLens(maxNo) {
					if !p.ringLens[n] {
						t.Fatalf("ring never had length %d (saw %v)", n, p.ringLens)
					}
				}
			})
		}
	}
}

// fuzzMQOps bounds one fuzz input's operations, so each input runs in
// milliseconds.
const fuzzMQOps = 2048

// FuzzMQ drives the on-demand MQ and the fixed-ring reference with the
// same operation stream: the first two bytes choose MaxNo (up to 300,
// so three doublings and a cap that is not a power of two), then every
// four bytes are one operation (op, target mode, 16-bit argument), at
// most fuzzMQOps of them.
func FuzzMQ(f *testing.F) {
	f.Add([]byte{0, 64, 0, 0, 0, 1, 0, 0, 0, 3, 3, 0, 0, 0})
	f.Add([]byte{0, 200, 0, 1, 0, 150, 2, 4, 0, 9, 3, 0, 0, 0, 4, 3, 0, 7, 5, 4, 1, 0})
	f.Add(append([]byte{0, 255}, bytes.Repeat([]byte{0, 0, 0, 1}, 300)...))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		maxNo := 1 + (int(in[0])<<8|int(in[1]))%300
		p := newMQPair(t, maxNo)
		ops := in[2:]
		if len(ops) > 4*fuzzMQOps {
			ops = ops[:4*fuzzMQOps]
		}
		for ; len(ops) >= 4; ops = ops[4:] {
			p.step(ops[0], ops[1], uint16(ops[2])<<8|uint16(ops[3]))
		}
	})
}

var mqSink *MQ

// TestNewMQAllocatesOnDemand pins the point of the on-demand ring: a
// default-sized MQ (MaxNo 16,384, 256 KB if allocated whole) costs
// about a kilobyte until its window grows.
func TestNewMQAllocatesOnDemand(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mqSink = NewMQ(1 << 14)
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > 2<<10 {
		t.Fatalf("NewMQ(1<<14) allocated %d B, want ≤ 2048", d)
	}
	if n := len(mqSink.buf); n != mqInitialSlots {
		t.Fatalf("initial ring %d slots, want %d", n, mqInitialSlots)
	}
}
