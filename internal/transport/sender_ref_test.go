package transport

import (
	"cmp"
	"slices"

	"repro/internal/msg"
	"repro/internal/seq"
	"repro/internal/sim"
)

type refPending struct {
	s       *refSender
	m       msg.Message
	seqno   uint64
	retries int
	sent    uint64 // the refSender's transmission count at p's last (re)send
	timer   sim.Timer
}

// refPendingTimeout is one message's retransmission handler.
func refPendingTimeout(v any) {
	p := v.(*refPending)
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

// refSender is the hop sender as it was before the window became a ring
// under one timer: a map of outstanding messages, each with its own
// pooled pending slot and its own scheduler event. It stays as the
// reference FuzzSender checks Sender against. Its one change is that
// Retarget resends in seqno order, as Sender does (it ranged over the map,
// so a run that retargeted a hop did not repeat for its seed).
//
// It reliably pushes a sequence-numbered stream of messages across
// one directed hop. Seqnos must be assigned by the caller and are
// cumulative-acked: Ack(n) releases every message with seqno ≤ n.
//
// The sender never reorders: it transmits immediately on Send and
// retransmits on timeout, or sooner on a receiver's gap report (Repair).
// OnGiveUp fires when a message exhausts its retries — the caller then
// applies the really-lost rule.
type refSender struct {
	net   Network
	cfg   Config
	from  seq.NodeID
	to    seq.NodeID
	out   map[uint64]*refPending
	free  []*refPending // recycled pending slots (their timers are stopped)
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
	burstPend []*refPending
}

// newRefSender builds a sender for one directed hop.
func newRefSender(net Network, from, to seq.NodeID, cfg Config) *refSender {
	if cfg.RTO <= 0 {
		cfg.RTO = DefaultConfig.RTO
	}
	return &refSender{net: net, cfg: cfg, from: from, to: to, out: make(map[uint64]*refPending)}
}

// To returns the destination of this hop.
func (s *refSender) To() seq.NodeID { return s.to }

// Retarget atomically redirects the hop to a new destination (ring
// repair: the next node changed). Unacked messages are retransmitted to
// the new destination immediately.
func (s *refSender) Retarget(to seq.NodeID) {
	if s.to == to {
		return
	}
	s.to = to
	sns := make([]uint64, 0, len(s.out))
	for sn := range s.out {
		sns = append(sns, sn)
	}
	slices.Sort(sns)
	for _, sn := range sns {
		p := s.out[sn]
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
func (s *refSender) Unsent(seqno uint64) bool {
	if s.closed || seqno <= s.acked {
		return false
	}
	_, dup := s.out[seqno]
	return !dup
}

// track acquires a pending slot for (seqno, m) and inserts it into the
// outstanding window; the caller transmits and arms the timer.
func (s *refSender) track(seqno uint64, m msg.Message) *refPending {
	var p *refPending
	if n := len(s.free); n > 0 {
		p = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		p = &refPending{s: s}
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
func (s *refSender) Send(seqno uint64, m msg.Message) {
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
func (s *refSender) SendRun(start uint64, msgs []msg.Message) {
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
func (s *refSender) release(p *refPending) {
	p.timer.Stop()
	delete(s.out, p.seqno)
	p.m = nil
	s.free = append(s.free, p)
}

func (s *refSender) transmit(p *refPending) {
	s.net.Send(s.from, s.to, p.m)
	s.sent++
	p.sent = s.sent
	p.timer.Stop()
	s.arm(p)
}

func (s *refSender) arm(p *refPending) {
	sched := s.net.Scheduler()
	p.timer = sched.AtCall(sched.Now()+retryDelay(s.cfg, p.retries), refPendingTimeout, p)
}

// Ack releases every outstanding message with seqno ≤ cum, walking
// whichever is shorter: the newly acknowledged seqno range (streams are
// dense, so each probe releases a message) or the window (a sparse
// stream, or a cum that leapt far ahead). A cumulative ack behind a long
// backlog costs what it releases, not the backlog.
func (s *refSender) Ack(cum uint64) {
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
func (s *refSender) Repair(above uint64) int {
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
		slices.SortFunc(due, func(a, b *refPending) int { return cmp.Compare(a.seqno, b.seqno) })
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
func (s *refSender) Acked() uint64 { return s.acked }

// Outstanding returns the number of unacked messages.
func (s *refSender) Outstanding() int { return len(s.out) }

// Close stops all timers; subsequent Sends are dropped.
func (s *refSender) Close() {
	s.closed = true
	for _, p := range s.out {
		s.release(p)
	}
}
