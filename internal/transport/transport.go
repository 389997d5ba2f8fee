// Package transport implements the paper's local-scope-based
// retransmission scheme (§4.2.3): every network entity reliably transmits
// within its immediate-neighbor scope only — to its next node, its
// children, or its attached MHs — using per-hop cumulative
// acknowledgements, timeout retransmission, and bounded retries; a
// receiver's gap report (Sender.Repair) brings a resend forward to one
// hop round trip after the loss instead of one timeout. A hop (Sender)
// keeps its unacked messages in a seqno-ordered ring and times them all
// with one scheduler timer, so what it holds is what is in flight. After
// the retry budget is exhausted a message is "really lost" and, per
// §4.1, is considered delivered (best-effort reliability in the sense of
// Bimodal Multicast [5]).
package transport

import (
	"fmt"

	"repro/internal/msg"
	"repro/internal/seq"
	"repro/internal/sim"
)

// Network is what a reliable hop needs from whatever carries it: a timer
// source and fire-and-forget sends. Send reports whether the message
// entered the path at all; like UDP, nothing is learned about delivery.
// SendBurst is len(msgs) Sends the carrier may deliver as one unit; the
// caller keeps ownership of msgs.
type Network interface {
	Scheduler() *sim.Scheduler
	Send(from, to seq.NodeID, m msg.Message) bool
	SendBurst(from, to seq.NodeID, msgs []msg.Message)
}

// Config tunes one reliable hop.
type Config struct {
	// RTO is the retransmission timeout.
	RTO sim.Time
	// MaxRetries bounds retransmissions per message; 0 means unbounded
	// (strong reliability within the hop).
	MaxRetries int
	// BackoffCap, when non-zero, doubles the retransmission delay on
	// every retry of the same message, up to this cap; a fresh message
	// (or a retargeted hop) starts back at RTO. A receiver that has
	// genuinely fallen behind — seconds of scheduler backlog on an
	// overloaded federated daemon — is only buried deeper by fixed-rate
	// duplicates, and the duplicates it processes are pure overhead
	// since the first copy is already queued. 0 keeps the paper's
	// fixed-RTO scheme (the simulator default).
	BackoffCap sim.Time
	// MinRTO, when non-zero, times a Courier from its own round trips
	// (RFC 6298): RTO = SRTT + 4·RTTVAR, sampled from acknowledged
	// deliveries that were never retransmitted (Karn's rule) and clamped
	// to [MinRTO, RTO]; until the first sample the courier uses RTO.
	// Senders keep the fixed RTO whatever this holds. 0 keeps the paper's
	// fixed RTO (the simulator default).
	MinRTO sim.Time
}

// DefaultConfig suits wired backbone hops.
var DefaultConfig = Config{RTO: 20 * sim.Millisecond, MaxRetries: 10}

// WirelessConfig suits lossy AP→MH hops: a tighter timer and a larger
// budget.
var WirelessConfig = Config{RTO: 30 * sim.Millisecond, MaxRetries: 15}

// slot is one message in a Sender's window.
type slot struct {
	m       msg.Message // nil once given up, until its seqno is sent again
	seqno   uint64
	sent    uint64 // the Sender's transmission count at the last (re)send
	key     uint64 // scheduler position reserved by the last (re)send
	retries int
}

// deadline is the timeout of one (re)transmission: due at due, in the
// scheduler position key that the message's own timer event would have
// taken. It is stale once its message is released, given up or sent
// again, and is dropped when it comes up.
type deadline struct {
	due   sim.Time
	key   uint64
	seqno uint64
}

func (d deadline) before(o deadline) bool {
	if d.due != o.due {
		return d.due < o.due
	}
	return d.key < o.key
}

// ring is a growable circular buffer, kept in order: O(1) at both ends.
// It allocates on its first insert and when it doubles, never in steady
// state.
type ring[T any] struct {
	buf  []T // power-of-two length
	head int
	n    int
}

func (r *ring[T]) at(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

// insert opens index i (n appends) and returns it.
func (r *ring[T]) insert(i int) *T {
	if r.n == len(r.buf) {
		b := make([]T, max(8, 2*len(r.buf)))
		for j := 0; j < r.n; j++ {
			b[j] = *r.at(j)
		}
		r.buf, r.head = b, 0
	}
	for j := r.n; j > i; j-- {
		*r.at(j) = *r.at(j - 1)
	}
	r.n++
	return r.at(i)
}

func (r *ring[T]) popFront() {
	var zero T
	*r.at(0) = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// Sender reliably pushes a sequence-numbered stream of messages across
// one directed hop. Seqnos must be assigned by the caller and are
// cumulative-acked: Ack(n) releases every message with seqno ≤ n.
//
// The sender never reorders: it transmits immediately on Send and
// retransmits on timeout, or sooner on a receiver's gap report (Repair).
// OnGiveUp fires when a message exhausts its retries — the caller then
// applies the really-lost rule.
//
// The window is a ring of slots in seqno order: an ack pops its head, a
// repair walks it from the head, a send appends at its tail. The hop has
// one retransmission timer, as a TCP connection does (RFC 6298 §5), not
// one per message. Each (re)transmission files a deadline ordered by
// (due, key), where key is the scheduler position reserved for it
// (sim.Scheduler.Reserve), and the timer is armed at the earliest
// deadline still live, in that deadline's position: a message times out
// at exactly the instant, and in exactly the order among same-instant
// events, that its own timer event would have. Under a fixed RTO
// deadlines are filed in order and queue in a ring; one filed earlier
// than the last (a backoff) goes to a small heap. A deadline whose
// message was acked or resent since is skipped when it comes up, so the
// timer may fire for one such and re-arm. The hop's state is its
// in-flight window: no scheduler event, map entry or timer handle per
// message.
type Sender struct {
	net   Network
	cfg   Config
	from  seq.NodeID
	to    seq.NodeID
	acked uint64
	// OnGiveUp is invoked with the seqno abandoned after MaxRetries.
	OnGiveUp func(seqno uint64)
	// OnRetransmit, when set, observes every resend with the message
	// being resent and its cause: a gap report (Repair) or the timer
	// (telemetry and trace-plane hook; nil — the simulator default —
	// costs one branch per retransmission). It must not call back into
	// the Sender.
	OnRetransmit func(m msg.Message, gap bool)

	// Retransmissions counts timeout-triggered resends and Repairs the
	// gap-triggered ones (overhead metrics).
	Retransmissions uint64
	Repairs         uint64
	closed          bool
	// sent counts transmissions, first sends and resends alike; each
	// slot keeps the count of its last one, which orders the hop's
	// transmissions for Repair.
	sent uint64

	// win is the window in seqno order; live counts its slots not given
	// up.
	win  ring[slot]
	live int
	// queued holds deadlines filed in order, late (a min-heap) those
	// filed before the last queued one; both keep stale entries until
	// they come up. timer is armed at armed, at or before the earliest
	// live deadline.
	queued ring[deadline]
	late   []deadline
	timer  sim.Timer
	armed  deadline

	// burst is SendRun's scratch.
	burst []msg.Message
}

// NewSender builds a sender for one directed hop. It allocates nothing
// for the window until the first send.
func NewSender(net Network, from, to seq.NodeID, cfg Config) *Sender {
	if cfg.RTO <= 0 {
		cfg.RTO = DefaultConfig.RTO
	}
	return &Sender{net: net, cfg: cfg, from: from, to: to}
}

// To returns the destination of this hop.
func (s *Sender) To() seq.NodeID { return s.to }

// find returns the window index of seqno, or the index it would be
// inserted at. A dense window is indexed directly; a sparse one (skips,
// jumps) is searched.
func (s *Sender) find(seqno uint64) (int, bool) {
	w := &s.win
	if w.n == 0 {
		return 0, false
	}
	lo, hi := w.at(0).seqno, w.at(w.n-1).seqno
	switch {
	case seqno < lo:
		return 0, false
	case seqno > hi:
		return w.n, false
	case hi-lo == uint64(w.n-1):
		return int(seqno - lo), true
	}
	i, j := 0, w.n
	for i < j {
		h := int(uint(i+j) >> 1)
		if w.at(h).seqno < seqno {
			i = h + 1
		} else {
			j = h
		}
	}
	return i, w.at(i).seqno == seqno
}

// Retarget atomically redirects the hop to a new destination (ring
// repair: the next node changed). Unacked messages are retransmitted to
// the new destination immediately, in seqno order.
func (s *Sender) Retarget(to seq.NodeID) {
	if s.to == to {
		return
	}
	s.to = to
	for i := 0; i < s.win.n; i++ {
		sl := s.win.at(i)
		if sl.m == nil {
			continue
		}
		if s.cfg.BackoffCap > 0 {
			// A fresh destination deserves a fresh cadence: the old
			// peer's unresponsiveness says nothing about the new one.
			sl.retries = 0
		}
		s.transmit(sl)
	}
}

// Unsent reports whether a Send/SendRun of seqno would actually
// transmit: the seqno is above the cumulative ack and not already
// outstanding. Callers use it to decide whether a frame can carry
// piggybacked state that must not be silently dropped.
func (s *Sender) Unsent(seqno uint64) bool {
	if s.closed || seqno <= s.acked {
		return false
	}
	if s.win.n == 0 || seqno > s.win.at(s.win.n-1).seqno {
		return true
	}
	i, ok := s.find(seqno)
	return !ok || s.win.at(i).m == nil
}

// admit puts (seqno, m) into the window, which the caller has checked
// with Unsent: a given-up slot of that seqno is reused, anything else is
// inserted in seqno order (at the tail but for a resend below it).
func (s *Sender) admit(seqno uint64, m msg.Message) *slot {
	i, ok := s.find(seqno)
	var sl *slot
	if ok {
		sl = s.win.at(i)
	} else {
		sl = s.win.insert(i)
	}
	*sl = slot{m: m, seqno: seqno}
	s.live++
	return sl
}

// Send transmits m with the given stream seqno. Duplicate seqnos and
// seqnos at or below the cumulative ack are ignored.
func (s *Sender) Send(seqno uint64, m msg.Message) {
	if !s.Unsent(seqno) {
		return
	}
	s.transmit(s.admit(seqno, m))
}

// SendRun transmits msgs[i] with seqno start+i as one burst: every
// message is tracked and timed exactly as with Send, but the initial
// transmission goes through the network's burst path, which schedules a
// single delivery event for the whole run on jitter-free links instead
// of one event per frame. Duplicate seqnos and seqnos at or below the
// cumulative ack are skipped, as in Send.
func (s *Sender) SendRun(start uint64, msgs []msg.Message) {
	if s.closed || len(msgs) == 0 {
		return
	}
	if len(msgs) == 1 {
		s.Send(start, msgs[0])
		return
	}
	burst := s.burst[:0]
	before := s.sent
	for i, m := range msgs {
		seqno := start + uint64(i)
		if !s.Unsent(seqno) {
			continue
		}
		burst = append(burst, m)
		s.sent++
		s.admit(seqno, m).sent = s.sent
	}
	s.net.SendBurst(s.from, s.to, burst)
	// The run's slots are those sent since before, in seqno order from
	// start's place on; their deadlines follow the burst's delivery
	// event, as their timers did.
	i, _ := s.find(start)
	for left := len(burst); left > 0; i++ {
		if sl := s.win.at(i); sl.m != nil && sl.sent > before {
			s.clock(sl)
			left--
		}
	}
	clear(burst) // the window holds the references; the scratch must not
	s.burst = burst[:0]
}

// transmit (re)sends sl's message and restarts its timeout.
func (s *Sender) transmit(sl *slot) {
	s.net.Send(s.from, s.to, sl.m)
	s.sent++
	sl.sent = s.sent
	s.clock(sl)
}

// clock files the timeout of sl's latest transmission, in the scheduler
// position its own timer event would take, and arms the hop's timer at
// it if it is now the earliest.
func (s *Sender) clock(sl *slot) {
	sched := s.net.Scheduler()
	d := deadline{due: sched.Now() + retryDelay(s.cfg, sl.retries), key: sched.Reserve(), seqno: sl.seqno}
	sl.key = d.key
	if q := &s.queued; q.n == 0 || !d.before(*q.at(q.n - 1)) {
		*q.insert(q.n) = d
	} else {
		s.pushLate(d)
	}
	if !s.timer.Pending() || d.before(s.armed) {
		s.arm(d)
	}
}

// arm points the hop's timer at d.
func (s *Sender) arm(d deadline) {
	s.timer.Stop()
	s.armed = d
	s.timer = s.net.Scheduler().AtCallKey(d.due, d.key, hopTimeout, s)
}

// hopTimeout is the hop's timer: it times out the message whose deadline
// it was armed at, unless that one was acked or resent since, then
// re-arms at the earliest live deadline.
func hopTimeout(v any) {
	s := v.(*Sender)
	if s.closed {
		return
	}
	if d, ok := s.next(); ok && d.key == s.armed.key {
		s.expire(d.seqno) // which makes d stale
	}
	if d, ok := s.next(); ok && (!s.timer.Pending() || d.before(s.armed)) {
		s.arm(d)
	}
}

// expire acts on the timeout of seqno's latest transmission: another
// retry, or, past MaxRetries, give-up.
func (s *Sender) expire(seqno uint64) {
	i, _ := s.find(seqno)
	sl := s.win.at(i)
	if s.cfg.MaxRetries > 0 && sl.retries >= s.cfg.MaxRetries {
		sl.m = nil
		s.live--
		if s.OnGiveUp != nil {
			s.OnGiveUp(seqno)
		}
		return
	}
	sl.retries++
	s.Retransmissions++
	if s.OnRetransmit != nil {
		s.OnRetransmit(sl.m, false)
	}
	s.transmit(sl)
}

// holds reports whether d is the latest deadline of an outstanding
// message.
func (s *Sender) holds(d deadline) bool {
	i, ok := s.find(d.seqno)
	return ok && s.win.at(i).m != nil && s.win.at(i).key == d.key
}

// next drops the stale deadlines that have come up and returns the
// earliest live one.
func (s *Sender) next() (deadline, bool) {
	q := &s.queued
	for q.n > 0 && !s.holds(*q.at(0)) {
		q.popFront()
	}
	for len(s.late) > 0 && !s.holds(s.late[0]) {
		s.popLate()
	}
	switch {
	case len(s.late) > 0 && (q.n == 0 || s.late[0].before(*q.at(0))):
		return s.late[0], true
	case q.n > 0:
		return *q.at(0), true
	}
	return deadline{}, false
}

func (s *Sender) pushLate(d deadline) {
	s.late = append(s.late, d)
	h := s.late
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (s *Sender) popLate() {
	h := s.late
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	s.late = h
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// retryDelay is the rearm delay after the retries-th transmission:
// fixed RTO, or exponentially backed off to cfg.BackoffCap.
func retryDelay(cfg Config, retries int) sim.Time {
	d := cfg.RTO
	if cfg.BackoffCap <= 0 {
		return d
	}
	for i := 0; i < retries && d < cfg.BackoffCap; i++ {
		d *= 2
	}
	if d > cfg.BackoffCap {
		d = cfg.BackoffCap
	}
	return d
}

// Ack releases every outstanding message with seqno ≤ cum, popping them
// off the head of the window: it costs what it releases, however long
// the backlog behind them.
func (s *Sender) Ack(cum uint64) {
	if cum <= s.acked {
		return
	}
	s.acked = cum
	for s.win.n > 0 && s.win.at(0).seqno <= cum {
		if s.win.at(0).m != nil {
			s.live--
		}
		s.win.popFront()
	}
	if s.live > 0 {
		s.next()
		return
	}
	// Nothing outstanding: every deadline is stale. The timer stays
	// armed and finds nothing to do.
	for s.win.n > 0 {
		s.win.popFront() // given-up slots
	}
	s.queued.head, s.queued.n = 0, 0
	s.late = s.late[:0]
}

// Repair acts on a receiver's gap report: it holds seqno above but not
// every seqno between the cumulative ack and it. Each outstanding seqno
// below above is resent at once — unless it was last sent after above
// was, since then the report cannot tell whether that copy arrived. So a
// message is repaired at most once per hop round trip however many
// reports name its hole: the next repair needs a report triggered by
// something sent after this one. Retries and the backoff are left alone
// (a repair is not a timeout), and the resend restarts the message's
// timeout, which stays the fallback for a loss no later arrival reveals.
// It returns the number of messages resent, which it walks from the
// head of the window, in seqno order.
func (s *Sender) Repair(above uint64) int {
	i, ok := s.find(above)
	if s.closed || !ok || s.win.at(i).m == nil {
		return 0
	}
	top := s.win.at(i).sent
	n := 0
	for j := 0; j < i; j++ {
		if sl := s.win.at(j); sl.m != nil && sl.sent < top {
			n++
			s.Repairs++
			if s.OnRetransmit != nil {
				s.OnRetransmit(sl.m, true)
			}
			s.transmit(sl)
		}
	}
	return n
}

// Acked returns the cumulative acknowledgement received.
func (s *Sender) Acked() uint64 { return s.acked }

// Outstanding returns the number of unacked messages.
func (s *Sender) Outstanding() int { return s.live }

// Close stops the timer and drops the window; subsequent Sends are
// dropped.
func (s *Sender) Close() {
	s.closed = true
	s.timer.Stop()
	s.win, s.queued, s.late = ring[slot]{}, ring[deadline]{}, nil
	s.live = 0
}

// Courier reliably delivers one message at a time (the ordering token's
// "some retransmission scheme", §4.2.1). Deliver sends m and retransmits
// until Confirm is called or retries are exhausted, at which point OnFail
// fires (the basis of the Token-Loss case when the next node is dead).
// With Config.MinRTO set, the courier times itself from its confirmed
// round trips instead of the fixed RTO.
type Courier struct {
	net  Network
	cfg  Config
	from seq.NodeID

	seqno   uint64 // identifies the current in-flight delivery
	to      seq.NodeID
	m       msg.Message
	retries int
	sentAt  sim.Time // when the current delivery was first sent
	timer   sim.Timer
	// srtt and rttvar are the RFC 6298 estimator (MinRTO set, once
	// sampled); rto is the timeout a fresh delivery starts from.
	srtt, rttvar, rto sim.Time
	// OnFail is invoked when delivery of the current message is
	// abandoned.
	OnFail func(to seq.NodeID, m msg.Message)
	// Resend, when set, maps the in-flight message to what the second and
	// later retransmissions send instead; the first resends it unchanged.
	// The token hop uses it to resend its whole table: a receiver that
	// refused the first copy's delta lacks the base it was cut from,
	// while one that merely lost it still holds that base.
	Resend func(m msg.Message) msg.Message

	Retransmissions uint64
}

// NewCourier builds a single-message reliable sender.
func NewCourier(net Network, from seq.NodeID, cfg Config) *Courier {
	if cfg.RTO <= 0 {
		cfg.RTO = DefaultConfig.RTO
	}
	return &Courier{net: net, cfg: cfg, from: from, rto: cfg.RTO}
}

// Busy reports whether a delivery is in flight.
func (c *Courier) Busy() bool { return c.m != nil }

// To returns the destination of the current (or last) delivery — used by
// membership reconfiguration to find couriers stuck on a removed member.
func (c *Courier) To() seq.NodeID { return c.to }

// RTO is the timeout a fresh delivery starts from: Config.RTO, or the
// measured one under Config.MinRTO.
func (c *Courier) RTO() sim.Time { return c.rto }

// Deliver starts reliable delivery of m to to, cancelling any previous
// in-flight delivery.
func (c *Courier) Deliver(to seq.NodeID, m msg.Message) {
	c.Cancel()
	c.seqno++
	c.to = to
	c.m = m
	c.retries = 0
	c.sentAt = c.net.Scheduler().Now()
	c.net.Send(c.from, to, m)
	c.armCourier(c.seqno)
}

func (c *Courier) armCourier(sn uint64) {
	cfg := c.cfg
	cfg.RTO = c.rto
	c.timer = c.net.Scheduler().After(retryDelay(cfg, c.retries), func() {
		if c.m == nil || c.seqno != sn {
			return
		}
		if c.cfg.MaxRetries > 0 && c.retries >= c.cfg.MaxRetries {
			m, to := c.m, c.to
			c.m = nil
			if c.OnFail != nil {
				c.OnFail(to, m)
			}
			return
		}
		c.retries++
		c.Retransmissions++
		if c.Resend != nil && c.retries > 1 {
			c.m = c.Resend(c.m)
		}
		c.net.Send(c.from, c.to, c.m)
		c.armCourier(sn)
	})
}

// Confirm acknowledges the in-flight delivery, stopping retransmission.
// Under Config.MinRTO a delivery confirmed without a retransmission is
// a round-trip sample; a retransmitted one is not, since the ack may
// answer either copy (Karn's rule).
func (c *Courier) Confirm() {
	if c.cfg.MinRTO > 0 && c.m != nil && c.retries == 0 {
		c.sample(c.net.Scheduler().Now() - c.sentAt)
	}
	c.Cancel()
}

// sample folds one round trip r into the estimator (RFC 6298 §2).
func (c *Courier) sample(r sim.Time) {
	if c.srtt == 0 {
		c.srtt, c.rttvar = r, r/2
	} else {
		d := c.srtt - r
		if d < 0 {
			d = -d
		}
		c.rttvar += (d - c.rttvar) / 4
		c.srtt += (r - c.srtt) / 8
	}
	c.rto = min(max(c.srtt+4*c.rttvar, c.cfg.MinRTO), c.cfg.RTO)
}

// Cancel abandons the in-flight delivery, stopping retransmission,
// without treating it as acknowledged.
func (c *Courier) Cancel() {
	c.timer.Stop()
	c.m = nil
}

func (c *Courier) String() string {
	return fmt.Sprintf("courier{from=%v to=%v busy=%v retries=%d rto=%v}", c.from, c.to, c.Busy(), c.retries, c.rto)
}
