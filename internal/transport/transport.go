// Package transport implements the paper's local-scope-based
// retransmission scheme (§4.2.3): every network entity reliably transmits
// within its immediate-neighbor scope only — to its next node, its
// children, or its attached MHs — using per-hop cumulative
// acknowledgements, timeout retransmission, and bounded retries; a
// receiver's gap report (Sender.Repair) brings a resend forward to one
// hop round trip after the loss instead of one timeout. After
// the retry budget is exhausted a message is "really lost" and, per
// §4.1, is considered delivered (best-effort reliability in the sense of
// Bimodal Multicast [5]).
package transport

import (
	"cmp"
	"fmt"
	"slices"

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

type pending struct {
	s       *Sender
	m       msg.Message
	seqno   uint64
	retries int
	sent    uint64 // the Sender's transmission count at p's last (re)send
	timer   sim.Timer
}

// pendingTimeout is the static retransmission handler: scheduled with
// AfterCall so arming a timer allocates no closure.
func pendingTimeout(v any) {
	p := v.(*pending)
	s := p.s
	if s.closed || p.seqno <= s.acked {
		return
	}
	if q, live := s.out[p.seqno]; !live || q != p {
		return
	}
	if s.cfg.MaxRetries > 0 && p.retries >= s.cfg.MaxRetries {
		seqno := p.seqno
		s.release(p)
		if s.OnGiveUp != nil {
			s.OnGiveUp(seqno)
		}
		return
	}
	p.retries++
	s.Retransmissions++
	if s.OnRetransmit != nil {
		s.OnRetransmit(p.m, false)
	}
	s.transmit(p)
}

// Sender reliably pushes a sequence-numbered stream of messages across
// one directed hop. Seqnos must be assigned by the caller and are
// cumulative-acked: Ack(n) releases every message with seqno ≤ n.
//
// The sender never reorders: it transmits immediately on Send and
// retransmits on timeout, or sooner on a receiver's gap report (Repair).
// OnGiveUp fires when a message exhausts its retries — the caller then
// applies the really-lost rule.
type Sender struct {
	net   Network
	cfg   Config
	from  seq.NodeID
	to    seq.NodeID
	out   map[uint64]*pending
	free  []*pending // recycled pending slots (their timers are stopped)
	acked uint64
	// OnGiveUp is invoked with the seqno abandoned after MaxRetries.
	OnGiveUp func(seqno uint64)
	// OnRetransmit, when set, observes every resend with the message
	// being resent and its cause: a gap report (Repair) or the timer
	// (telemetry and trace-plane hook; nil — the simulator default —
	// costs one branch per retransmission).
	OnRetransmit func(m msg.Message, gap bool)

	// Retransmissions counts timeout-triggered resends and Repairs the
	// gap-triggered ones (overhead metrics).
	Retransmissions uint64
	Repairs         uint64
	closed          bool
	// sent counts transmissions, first sends and resends alike; each
	// pending slot keeps the count of its last one, which orders the
	// hop's transmissions for Repair.
	sent uint64

	// scratch buffers for SendRun (per-call burst assembly).
	burstMsgs []msg.Message
	burstPend []*pending
}

// NewSender builds a sender for one directed hop.
func NewSender(net Network, from, to seq.NodeID, cfg Config) *Sender {
	if cfg.RTO <= 0 {
		cfg.RTO = DefaultConfig.RTO
	}
	return &Sender{net: net, cfg: cfg, from: from, to: to, out: make(map[uint64]*pending)}
}

// To returns the destination of this hop.
func (s *Sender) To() seq.NodeID { return s.to }

// Retarget atomically redirects the hop to a new destination (ring
// repair: the next node changed). Unacked messages are retransmitted to
// the new destination immediately.
func (s *Sender) Retarget(to seq.NodeID) {
	if s.to == to {
		return
	}
	s.to = to
	for _, p := range s.out {
		if s.cfg.BackoffCap > 0 {
			// A fresh destination deserves a fresh cadence: the old
			// peer's unresponsiveness says nothing about the new one.
			p.retries = 0
		}
		s.transmit(p)
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
	_, dup := s.out[seqno]
	return !dup
}

// track acquires a pending slot for (seqno, m) and inserts it into the
// outstanding window; the caller transmits and arms the timer.
func (s *Sender) track(seqno uint64, m msg.Message) *pending {
	var p *pending
	if n := len(s.free); n > 0 {
		p = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		p = &pending{s: s}
	}
	p.m = m
	p.seqno = seqno
	p.retries = 0
	s.out[seqno] = p
	s.sent++
	p.sent = s.sent
	return p
}

// Send transmits m with the given stream seqno. Duplicate seqnos and
// seqnos at or below the cumulative ack are ignored.
func (s *Sender) Send(seqno uint64, m msg.Message) {
	if !s.Unsent(seqno) {
		return
	}
	p := s.track(seqno, m)
	s.net.Send(s.from, s.to, m)
	s.arm(p)
}

// SendRun transmits msgs[i] with seqno start+i as one burst: every
// message gets its own pending slot and retransmission timer exactly as
// with Send, but the initial transmission goes through the network's
// burst path, which schedules a single delivery event for the whole run
// on jitter-free links instead of one event per frame. Duplicate seqnos
// and seqnos at or below the cumulative ack are skipped, as in Send.
func (s *Sender) SendRun(start uint64, msgs []msg.Message) {
	if s.closed || len(msgs) == 0 {
		return
	}
	if len(msgs) == 1 {
		s.Send(start, msgs[0])
		return
	}
	burst := s.burstMsgs[:0]
	pend := s.burstPend[:0]
	for i, m := range msgs {
		seqno := start + uint64(i)
		if !s.Unsent(seqno) {
			continue
		}
		burst = append(burst, m)
		pend = append(pend, s.track(seqno, m))
	}
	s.net.SendBurst(s.from, s.to, burst)
	for i, p := range pend {
		s.arm(p)
		pend[i] = nil
	}
	for i := range burst {
		burst[i] = nil // pendings hold the references; the scratch must not
	}
	s.burstMsgs = burst[:0]
	s.burstPend = pend[:0]
}

// release stops p's timer, drops it from the outstanding window, and
// recycles the slot.
func (s *Sender) release(p *pending) {
	p.timer.Stop()
	delete(s.out, p.seqno)
	p.m = nil
	s.free = append(s.free, p)
}

func (s *Sender) transmit(p *pending) {
	s.net.Send(s.from, s.to, p.m)
	s.sent++
	p.sent = s.sent
	p.timer.Stop()
	s.arm(p)
}

func (s *Sender) arm(p *pending) {
	p.timer = s.net.Scheduler().AfterCall(retryDelay(s.cfg, p.retries), pendingTimeout, p)
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

// Ack releases every outstanding message with seqno ≤ cum, walking
// whichever is shorter: the newly acknowledged seqno range (streams are
// dense, so each probe releases a message) or the window (a sparse
// stream, or a cum that leapt far ahead). A cumulative ack behind a long
// backlog costs what it releases, not the backlog.
func (s *Sender) Ack(cum uint64) {
	if cum <= s.acked {
		return
	}
	from := s.acked
	s.acked = cum
	if cum-from <= uint64(len(s.out)) {
		for n := from + 1; n <= cum; n++ {
			if p, ok := s.out[n]; ok {
				s.release(p)
			}
		}
		return
	}
	for n, p := range s.out {
		if n <= cum {
			s.release(p)
		}
	}
}

// Repair acts on a receiver's gap report: it holds seqno above but not
// every seqno between the cumulative ack and it. Each outstanding seqno
// below above is resent at once — unless it was last sent after above
// was, since then the report cannot tell whether that copy arrived. So a
// message is repaired at most once per hop round trip however many
// reports name its hole: the next repair needs a report triggered by
// something sent after this one. Retries and the backoff are left alone
// (a repair is not a timeout), and the resend restarts the message's
// timer, which stays the fallback for a loss no later arrival reveals.
// It returns the number of messages resent. Like Ack, it walks the
// shorter of the seqno range and the window, resending in seqno order.
func (s *Sender) Repair(above uint64) int {
	top, ok := s.out[above]
	if s.closed || !ok {
		return 0
	}
	due := s.burstPend[:0]
	if above-s.acked <= uint64(len(s.out)) {
		for sn := s.acked + 1; sn < above; sn++ {
			if p, ok := s.out[sn]; ok && p.sent < top.sent {
				due = append(due, p)
			}
		}
	} else {
		for sn, p := range s.out {
			if sn < above && p.sent < top.sent {
				due = append(due, p)
			}
		}
		slices.SortFunc(due, func(a, b *pending) int { return cmp.Compare(a.seqno, b.seqno) })
	}
	for i, p := range due {
		s.Repairs++
		if s.OnRetransmit != nil {
			s.OnRetransmit(p.m, true)
		}
		s.transmit(p)
		due[i] = nil
	}
	s.burstPend = due[:0]
	return len(due)
}

// Acked returns the cumulative acknowledgement received.
func (s *Sender) Acked() uint64 { return s.acked }

// Outstanding returns the number of unacked messages.
func (s *Sender) Outstanding() int { return len(s.out) }

// Close stops all timers; subsequent Sends are dropped.
func (s *Sender) Close() {
	s.closed = true
	for _, p := range s.out {
		s.release(p)
	}
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
