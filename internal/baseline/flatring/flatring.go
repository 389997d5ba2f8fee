// Package flatring implements the comparator of paper §2 [16]
// (Nikolaidis & Harms, ICNP 1999): a reliable totally-ordered multicast
// where ALL base stations form one flat logical ring. A token circulates
// the whole ring to order messages and to establish the consistent
// delivery watermark used for buffer release. The paper's criticism —
// "since all the control information has to be rotated along the ring,
// it may lead to large latency and require large buffers when the ring
// becomes large" — is exactly what experiment E4 measures against
// RingNet's tree-of-small-rings.
package flatring

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/queue"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Config tunes the flat-ring protocol.
type Config struct {
	MQSize    int
	MHWindow  int
	TokenHold sim.Time
	Hop       transport.Config
	Wireless  transport.Config
	// RetainExtra delivered slots kept below the ring-wide floor.
	RetainExtra int
}

// DefaultConfig mirrors the RingNet defaults for a fair comparison.
func DefaultConfig() Config {
	return Config{
		MQSize:      1 << 16,
		MHWindow:    1 << 10,
		TokenHold:   200 * sim.Microsecond,
		Hop:         transport.DefaultConfig,
		Wireless:    transport.WirelessConfig,
		RetainExtra: 64,
	}
}

// token is the flat ring's ordering token: a global sequence counter plus
// the per-station delivery floors that implement the "consistent view ...
// with respect to the messages that are considered to have been delivered"
// of [16].
type token struct {
	next   seq.GlobalSeq
	hops   uint64
	floors map[seq.NodeID]seq.GlobalSeq
}

func (t *token) clone() *token {
	c := &token{next: t.next, hops: t.hops, floors: make(map[seq.NodeID]seq.GlobalSeq, len(t.floors))}
	for k, v := range t.floors {
		c.floors[k] = v
	}
	return c
}

func (t *token) floorMin(ring []seq.NodeID) (seq.GlobalSeq, bool) {
	first := true
	var min seq.GlobalSeq
	for _, id := range ring {
		v, ok := t.floors[id]
		if !ok {
			return 0, false // not every station reported yet
		}
		if first || v < min {
			min = v
			first = false
		}
	}
	return min, !first
}

// tokenMsg rides the simulated network between stations.
type tokenMsg struct {
	from seq.NodeID
	tok  *token
}

func (*tokenMsg) Kind() msg.Kind  { return msg.KindToken }
func (m *tokenMsg) WireSize() int { return 17 + 12*len(m.tok.floors) }

// Engine runs one flat-ring deployment: stations in ring order, each
// with attached mobile hosts.
type Engine struct {
	Cfg  Config
	Net  *netsim.Network
	Log  *metrics.DeliveryLog
	ring []seq.NodeID
	bss  map[seq.NodeID]*BS
	mhs  map[seq.HostID]*mh

	local map[seq.NodeID]seq.LocalSeq

	// TokenHops counts total token link traversals (control overhead).
	TokenHops uint64
}

// MHIDOffset mirrors core's mapping of hosts into the NodeID space.
const MHIDOffset = 1 << 20

func mhNodeID(h seq.HostID) seq.NodeID { return seq.NodeID(uint32(h) + MHIDOffset) }

// New builds a flat ring of the given stations (in ring order) and wires
// station-to-station links.
func New(cfg Config, net *netsim.Network, ring []seq.NodeID, wired netsim.LinkParams) *Engine {
	e := &Engine{
		Cfg:   cfg,
		Net:   net,
		Log:   metrics.NewDeliveryLog(),
		ring:  append([]seq.NodeID(nil), ring...),
		bss:   make(map[seq.NodeID]*BS),
		mhs:   make(map[seq.HostID]*mh),
		local: make(map[seq.NodeID]seq.LocalSeq),
	}
	for i, id := range e.ring {
		next := e.ring[(i+1)%len(e.ring)]
		bs := newBS(e, id, next)
		e.bss[id] = bs
		net.Register(id, bs)
		if id != next {
			net.Connect(id, next, wired)
		}
	}
	return e
}

// Start injects the ordering token at the first station.
func (e *Engine) Start() {
	first := e.bss[e.ring[0]]
	tok := &token{next: 1, floors: make(map[seq.NodeID]seq.GlobalSeq)}
	e.Net.Scheduler().After(0, func() { first.handleToken(first.id, tok) })
}

// AddMH attaches a host to a station. Its stream starts at global 1, so
// hosts attach before traffic: one added once the log's horizon has
// passed 1 is reported by the log when it delivers below it.
func (e *Engine) AddMH(h seq.HostID, bs seq.NodeID, wireless netsim.LinkParams) error {
	b := e.bss[bs]
	if b == nil {
		return fmt.Errorf("flatring: unknown station %v", bs)
	}
	m := &mh{e: e, id: h, bs: bs, pending: make(map[seq.GlobalSeq]*msg.Data)}
	e.Log.Join(uint32(h), 0)
	e.mhs[h] = m
	e.Net.Register(mhNodeID(h), m)
	e.Net.Connect(mhNodeID(h), bs, wireless)
	b.attach(h)
	return nil
}

// Submit injects one application message at a station's source.
func (e *Engine) Submit(at seq.NodeID, payload []byte) error {
	b := e.bss[at]
	if b == nil {
		return fmt.Errorf("flatring: unknown station %v", at)
	}
	e.local[at]++
	l := e.local[at]
	e.Log.Sent(at, l, e.Net.Now())
	e.Net.Scheduler().After(0, func() { b.accept(l, payload) })
	return nil
}

// PeakMQ returns the maximum per-station MQ occupancy (buffer metric).
func (e *Engine) PeakMQ() int {
	p := 0
	for _, b := range e.bss {
		if b.mq.PeakLen() > p {
			p = b.mq.PeakLen()
		}
	}
	return p
}

// PeakPending returns the maximum unordered-source backlog observed.
func (e *Engine) PeakPending() int {
	p := 0
	for _, b := range e.bss {
		if b.peakPending > p {
			p = b.peakPending
		}
	}
	return p
}

// BS is one base station on the flat ring.
type BS struct {
	e    *Engine
	id   seq.NodeID
	next seq.NodeID

	mq *queue.MQ
	// pending holds source messages awaiting the token.
	pending     []*msg.Data
	peakPending int

	ringSender *transport.Sender
	mhSenders  map[seq.HostID]*transport.Sender
	wt         *queue.WT
	courier    *transport.Courier
	floor      seq.GlobalSeq // ring-wide release floor learned from the token
}

func newBS(e *Engine, id, next seq.NodeID) *BS {
	b := &BS{
		e:         e,
		id:        id,
		next:      next,
		mq:        queue.NewMQ(e.Cfg.MQSize),
		mhSenders: make(map[seq.HostID]*transport.Sender),
		wt:        queue.NewWT(),
	}
	if id != next {
		b.ringSender = transport.NewSender(e.Net, id, next, e.Cfg.Hop)
	}
	b.courier = transport.NewCourier(e.Net, id, e.Cfg.Hop)
	return b
}

func (b *BS) attach(h seq.HostID) {
	s := transport.NewSender(b.e.Net, b.id, mhNodeID(h), b.e.Cfg.Wireless)
	b.mhSenders[h] = s
	b.wt.Reset(uint32(h), 0)
}

func (b *BS) accept(l seq.LocalSeq, payload []byte) {
	d := &msg.Data{Group: 1, SourceNode: b.id, LocalSeq: l, Payload: payload}
	b.pending = append(b.pending, d)
	if len(b.pending) > b.peakPending {
		b.peakPending = len(b.pending)
	}
}

// Recv implements netsim.Handler.
func (b *BS) Recv(from seq.NodeID, m msg.Message) {
	switch v := m.(type) {
	case *tokenMsg:
		// Reliable transfer ack.
		b.e.Net.Send(b.id, from, &msg.TokenAck{From: b.id, Next: v.tok.next})
		b.handleToken(from, v.tok)
	case *msg.TokenAck:
		b.courier.Confirm()
	case *msg.Data:
		b.handleData(from, v)
	case *msg.Ack:
		if b.ringSender != nil && from == b.next {
			b.ringSender.Ack(uint64(v.CumGlobal))
			b.wt.Set(uint32(from), v.CumGlobal)
		}
	case *msg.Progress:
		if s := b.mhSenders[v.Host]; s != nil {
			s.Ack(uint64(v.Max))
			b.wt.Set(uint32(v.Host), v.Max)
		}
	}
}

// handleToken orders all pending source messages, records this station's
// delivery floor, and forwards the token.
func (b *BS) handleToken(from seq.NodeID, tok *token) {
	for _, d := range b.pending {
		d.GlobalSeq = tok.next
		d.OrderingNode = b.id
		tok.next++
		if _, err := b.mq.Insert(d); err != nil {
			break
		}
	}
	b.pending = b.pending[:0]
	tok.floors[b.id] = b.mq.Front()
	if min, ok := tok.floorMin(b.e.ring); ok {
		b.floor = min
	}
	b.deliver()
	b.releaseBuffers()
	tok.hops++
	b.e.TokenHops++
	fwd := tok.clone()
	b.e.Net.Scheduler().After(b.e.Cfg.TokenHold, func() {
		if b.next == b.id {
			b.handleToken(b.id, fwd)
			return
		}
		b.courier.Deliver(b.next, &tokenMsg{from: b.id, tok: fwd})
	})
}

func (b *BS) handleData(from seq.NodeID, d *msg.Data) {
	if _, err := b.mq.Insert(d); err != nil {
		return // backpressure: no ack, upstream retransmits
	}
	b.deliver()
	b.e.Net.Send(b.id, from, &msg.Ack{From: b.id, CumGlobal: b.mq.Front()})
}

// deliver advances the front: forward along the ring (stopping before the
// message's ordering origin) and push to attached hosts.
func (b *BS) deliver() {
	for {
		d, ok := b.mq.NextDeliverable()
		if !ok {
			break
		}
		g := b.mq.Front() + 1
		b.mq.AdvanceFront()
		if d == nil {
			continue
		}
		if b.ringSender != nil && b.next != d.OrderingNode {
			b.ringSender.Send(uint64(g), d)
		}
		for _, s := range b.sortedMHSenders() {
			s.Send(uint64(g), d)
		}
	}
}

func (b *BS) sortedMHSenders() []*transport.Sender {
	hosts := make([]seq.HostID, 0, len(b.mhSenders))
	for h := range b.mhSenders {
		hosts = append(hosts, h)
	}
	for i := 1; i < len(hosts); i++ {
		for j := i; j > 0 && hosts[j] < hosts[j-1]; j-- {
			hosts[j], hosts[j-1] = hosts[j-1], hosts[j]
		}
	}
	out := make([]*transport.Sender, len(hosts))
	for i, h := range hosts {
		out[i] = b.mhSenders[h]
	}
	return out
}

// releaseBuffers frees slots below both the token floor and local host
// progress.
func (b *BS) releaseBuffers() {
	target := b.floor
	if min, ok := b.wt.Min(); ok && min < target {
		target = min
	}
	retain := seq.GlobalSeq(b.e.Cfg.RetainExtra)
	if target <= retain {
		return
	}
	b.mq.ReleaseUpTo(target - retain)
}

// mh is a flat-ring mobile host: in-order delivery with reassembly.
type mh struct {
	e       *Engine
	id      seq.HostID
	bs      seq.NodeID
	last    seq.GlobalSeq
	pending map[seq.GlobalSeq]*msg.Data
}

func (m *mh) Recv(from seq.NodeID, message msg.Message) {
	d, ok := message.(*msg.Data)
	if !ok {
		return
	}
	if d.GlobalSeq <= m.last {
		m.ack()
		return
	}
	if len(m.pending) < m.e.Cfg.MHWindow {
		m.pending[d.GlobalSeq] = d
	}
	for {
		nd, ok := m.pending[m.last+1]
		if !ok {
			break
		}
		delete(m.pending, m.last+1)
		m.last++
		m.e.Log.Deliver(uint32(m.id), nd.GlobalSeq, nd.SourceNode, nd.LocalSeq, m.e.Net.Now())
	}
	m.ack()
}

func (m *mh) ack() {
	m.e.Net.Send(mhNodeID(m.id), m.bs, &msg.Progress{Host: m.id, Max: m.last})
}
