package core

import (
	"repro/internal/msg"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/transport"
)

// MH is a mobile-host receiver (paper §4.1, Data Structure of MHs): it
// reassembles the totally-ordered stream delivered by its attached AP,
// delivers in strict global order to the application, acknowledges
// cumulative progress, and survives handoffs by announcing its delivery
// high-water mark to the new AP.
type MH struct {
	e  *Engine
	id seq.HostID
	ap seq.NodeID

	// last is the delivered high-water mark (paper: Front); pending is
	// the reassembly window beyond it (paper: MQ slots past Front).
	last    seq.GlobalSeq
	pending map[seq.GlobalSeq]*msg.Data
	skips   []seq.Range

	// handoffCourier keeps re-sending HandoffNotify until traffic from
	// the new AP confirms attachment.
	handoffCourier *transport.Courier
	awaitingAP     bool

	// Progress coalescing: instead of one Progress per delivery, the MH
	// arms a flush timer and reports after Cfg.AckDelay — or immediately
	// when its reassembly window holds a gap or a duplicate arrives (the
	// AP is retransmitting, so a report was lost). The timer's Pending
	// state is the dirty flag: it is only armed with a report owed.
	ackTimer sim.Timer
	ackFlush func()

	// OnDeliver, when set, observes each application-level delivery.
	OnDeliver func(*msg.Data)

	// Delivered counts application deliveries; Skipped counts
	// really-lost gaps accepted; Jumped records a join-point baseline.
	Delivered uint64
	Skipped   uint64
	Jumped    bool
	closed    bool
}

func newMH(e *Engine, id seq.HostID, ap seq.NodeID) *MH {
	m := &MH{
		e:       e,
		id:      id,
		ap:      ap,
		pending: make(map[seq.GlobalSeq]*msg.Data),
	}
	m.handoffCourier = transport.NewCourier(e.Net, MHNodeID(id), transport.Config{RTO: e.Cfg.Wireless.RTO, MaxRetries: 0})
	m.ackFlush = m.flushAck
	return m
}

// ID returns the host identity.
func (m *MH) ID() seq.HostID { return m.id }

// AP returns the currently attached access proxy.
func (m *MH) AP() seq.NodeID { return m.ap }

func (m *MH) close() {
	m.closed = true
	m.handoffCourier.Confirm()
	m.ackTimer.Stop()
}

// Recv implements netsim.Handler for the wireless downlink.
func (m *MH) Recv(from seq.NodeID, message msg.Message) {
	if m.closed {
		return
	}
	if from == m.ap && m.awaitingAP {
		// First traffic from the new AP confirms the handoff notify.
		m.awaitingAP = false
		m.handoffCourier.Confirm()
	}
	switch v := message.(type) {
	case *msg.Data:
		m.onData(v)
	case *msg.Skip:
		m.onSkip(v)
	}
}

func (m *MH) onData(d *msg.Data) {
	g := d.GlobalSeq
	if g <= m.last {
		// Duplicate (lost ack): re-acknowledge immediately.
		m.flushAck()
		return
	}
	if len(m.pending) < m.e.Cfg.MHWindow {
		if _, dup := m.pending[g]; !dup {
			m.pending[g] = d
		}
	}
	m.drain()
}

func (m *MH) onSkip(s *msg.Skip) {
	max := seq.GlobalSeq(s.Range.Max)
	if max <= m.last {
		m.flushAck()
		return
	}
	if s.Jump && m.last == 0 && m.Delivered == 0 {
		// Join-point baseline: the stream begins after max; nothing
		// below it was ever addressed to this host.
		m.last = max
		m.Jumped = true
		m.gcSkips()
		m.drain()
		return
	}
	m.skips = append(m.skips, s.Range)
	m.drain()
}

// drain delivers the contiguous prefix: data slots deliver to the
// application; positions covered only by a skip range advance past the
// really-lost gap (a buffered body always beats a skip record).
func (m *MH) drain() {
	for {
		next := m.last + 1
		if d, ok := m.pending[next]; ok {
			delete(m.pending, next)
			m.last = next
			m.Delivered++
			m.e.Log.Deliver(uint32(m.id), d.GlobalSeq, d.SourceNode, d.LocalSeq, m.e.Scheduler().Now())
			if m.OnDeliver != nil {
				m.OnDeliver(d)
			}
			continue
		}
		if _, ok := m.skipCovering(uint64(next)); ok {
			m.last = next
			m.Skipped++
			m.e.Log.Skip(uint32(m.id), next)
			continue
		}
		break
	}
	m.noteAck()
	m.gcSkips()
}

func (m *MH) skipCovering(g uint64) (seq.Range, bool) {
	for _, r := range m.skips {
		if r.Contains(g) {
			return r, true
		}
	}
	return seq.Range{}, false
}

func (m *MH) gcSkips() {
	kept := m.skips[:0]
	for _, r := range m.skips {
		if seq.GlobalSeq(r.Max) > m.last {
			kept = append(kept, r)
		}
	}
	m.skips = kept
	for g := range m.pending {
		if g <= m.last {
			delete(m.pending, g)
		}
	}
}

// noteAck registers a pending Progress report. A gap in the reassembly
// window flushes at once — the AP needs the precise front to retransmit
// only what is missing and to release what got through — as does window
// pressure; otherwise the report waits out AckDelay and covers every
// delivery in between.
func (m *MH) noteAck() {
	if m.e.Cfg.AckDelay <= 0 || len(m.pending) > 0 {
		m.flushAck()
		return
	}
	if !m.ackTimer.Pending() {
		m.ackTimer = m.e.Scheduler().After(m.e.Cfg.AckDelay, m.ackFlush)
	}
}

func (m *MH) flushAck() {
	m.ackTimer.Stop()
	if m.closed {
		return
	}
	m.e.Net.Send(MHNodeID(m.id), m.ap, &msg.Progress{Group: m.e.Group, Host: m.id, Max: m.last})
}

// handoff switches the MH to a new AP: it announces its high-water mark
// so delivery resumes at last+1, and optionally asks the new AP to
// trigger path reservation nearby. The notify is re-sent until the new
// AP's traffic confirms attachment.
func (m *MH) handoff(old, ap seq.NodeID, reserve bool) {
	m.ap = ap
	m.awaitingAP = true
	m.handoffCourier.Deliver(ap, &msg.HandoffNotify{
		Group:     m.e.Group,
		Host:      m.id,
		OldAP:     old,
		Delivered: m.last,
	})
	if reserve {
		if ne := m.e.nes[ap]; ne != nil {
			// Reservation fan-out happens AP-side once it knows the MH
			// arrived; schedule on the AP after the notify's flight time.
			m.e.Scheduler().After(m.e.WirelessLink.Latency, func() {
				if !ne.failed {
					ne.reserveNearby()
				}
			})
		}
	}
}

var _ sim.Time // keep sim imported for doc comments referencing timers
