// Package unordered implements the RingNet variant of paper Remark 3:
// multicast over the same RingNet hierarchy but WITHOUT total ordering.
// Messages flow down the tree-of-rings the moment they arrive — no token
// wait, no Order-Assignment cycle — with only per-source FIFO guaranteed.
// Theorem 5.1 compares ordered RingNet against exactly this protocol:
// same throughput, ordering costs only latency and buffers (E1/E9).
package unordered

import (
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/queue"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// Config tunes the unordered protocol.
type Config struct {
	Hop      transport.Config
	Wireless transport.Config
}

// DefaultConfig mirrors the ordered engine's hop parameters.
func DefaultConfig() Config {
	return Config{Hop: transport.DefaultConfig, Wireless: transport.WirelessConfig}
}

// Log measures the unordered protocol: per-(receiver, source) FIFO is
// verified online; latency is measured against submission times.
type Log struct {
	sendTime  map[key]sim.Time
	perStream map[streamKey]seq.LocalSeq
	delivered map[uint32]uint64

	Latency   metrics.Sample // seconds
	Delivered uint64
	violation error
}

type key struct {
	src seq.NodeID
	l   seq.LocalSeq
}

type streamKey struct {
	recv uint32
	src  seq.NodeID
}

func newLog() *Log {
	return &Log{
		sendTime:  make(map[key]sim.Time),
		perStream: make(map[streamKey]seq.LocalSeq),
		delivered: make(map[uint32]uint64),
	}
}

// Err returns the first FIFO violation observed.
func (l *Log) Err() error { return l.violation }

// DeliveredAt returns how many messages a receiver delivered.
func (l *Log) DeliveredAt(recv uint32) uint64 { return l.delivered[recv] }

// MinDelivered returns the smallest per-receiver delivery count.
func (l *Log) MinDelivered() uint64 {
	first := true
	var min uint64
	for _, v := range l.delivered {
		if first || v < min {
			min = v
			first = false
		}
	}
	if first {
		return 0
	}
	return min
}

func (l *Log) deliver(recv uint32, src seq.NodeID, ls seq.LocalSeq, at sim.Time) {
	sk := streamKey{recv, src}
	if prev := l.perStream[sk]; ls <= prev {
		if l.violation == nil {
			l.violation = fmt.Errorf("unordered: receiver %d got %v:%d after %d", recv, src, ls, prev)
		}
		return
	}
	l.perStream[sk] = ls
	l.delivered[recv]++
	l.Delivered++
	if t, ok := l.sendTime[key{src, ls}]; ok {
		l.Latency.AddTime(at - t)
	}
}

// Engine runs the unordered protocol over a RingNet hierarchy.
type Engine struct {
	Cfg Config
	Net *netsim.Network
	H   *topology.Hierarchy
	Log *Log

	nes   map[seq.NodeID]*ne
	mhs   map[seq.HostID]*mh
	local map[seq.NodeID]seq.LocalSeq
}

// MHIDOffset mirrors core's host identity mapping.
const MHIDOffset = 1 << 20

func mhNodeID(h seq.HostID) seq.NodeID { return seq.NodeID(uint32(h) + MHIDOffset) }

// New builds the engine; Start wires and spawns everything.
func New(cfg Config, net *netsim.Network, h *topology.Hierarchy) *Engine {
	return &Engine{
		Cfg:   cfg,
		Net:   net,
		H:     h,
		Log:   newLog(),
		nes:   make(map[seq.NodeID]*ne),
		mhs:   make(map[seq.HostID]*mh),
		local: make(map[seq.NodeID]seq.LocalSeq),
	}
}

// Start spawns protocol entities and wires links (same wiring as the
// ordered engine).
func (e *Engine) Start(wired, wireless netsim.LinkParams) error {
	for _, id := range e.H.NodeIDs() {
		n := &ne{e: e, id: id, wq: queue.NewWQ(), fwd: make(map[seq.NodeID]map[seq.NodeID]*transport.Sender)}
		e.nes[id] = n
		e.Net.Register(id, n)
	}
	for _, rid := range e.H.Rings() {
		r := e.H.Ring(rid)
		nodes := r.Nodes()
		for i, a := range nodes {
			b := nodes[(i+1)%len(nodes)]
			if a != b {
				e.Net.Connect(a, b, wired)
			}
		}
	}
	for _, id := range e.H.NodeIDs() {
		hn := e.H.Node(id)
		if hn.Parent != seq.None {
			e.Net.Connect(id, hn.Parent, wired)
		}
	}
	for _, n := range e.nes {
		v, err := e.H.Neighbors(n.id)
		if err != nil {
			return err
		}
		n.view = v
	}
	for _, ap := range e.H.NodeIDs() {
		if e.H.Node(ap).Tier != topology.TierAP {
			continue
		}
		for _, h := range e.H.HostsAt(ap) {
			m := &mh{e: e, id: h, ap: ap, streams: make(map[seq.NodeID]*stream)}
			e.mhs[h] = m
			e.Net.Register(mhNodeID(h), m)
			e.Net.Connect(mhNodeID(h), ap, wireless)
		}
	}
	return nil
}

// Submit injects a message at its top-ring corresponding node.
func (e *Engine) Submit(corr seq.NodeID, payload []byte) error {
	n := e.nes[corr]
	if n == nil || !n.view.IsTop {
		return fmt.Errorf("unordered: %v is not a top-ring node", corr)
	}
	e.local[corr]++
	l := e.local[corr]
	e.Log.sendTime[key{corr, l}] = e.Net.Now()
	e.Net.Scheduler().After(0, func() {
		d := &msg.Data{Group: 1, SourceNode: corr, LocalSeq: l, Payload: payload}
		n.ingest(corr, d)
	})
	return nil
}

// PeakWQ returns the largest per-node reassembly backlog seen.
func (e *Engine) PeakWQ() int {
	p := 0
	for _, n := range e.nes {
		if n.wq.Peak() > p {
			p = n.wq.Peak()
		}
	}
	return p
}

// ne is one unordered network entity: per-source FIFO reassembly and
// immediate fan-out.
type ne struct {
	e    *Engine
	id   seq.NodeID
	view topology.Neighbors
	wq   *queue.WQ
	// fwd[src][dest] is the reliable per-source stream to one neighbor.
	fwd map[seq.NodeID]map[seq.NodeID]*transport.Sender
}

func (n *ne) Recv(from seq.NodeID, m msg.Message) {
	switch v := m.(type) {
	case *msg.Data:
		sq := n.wq.ForSource(v.SourceNode)
		sq.Insert(v)
		n.e.Net.Send(n.id, from, &msg.Ack{From: n.id, Source: v.SourceNode, CumLocal: sq.CumReceived()})
		n.drain(v.SourceNode)
	case *msg.Ack:
		if m := n.fwd[v.Source]; m != nil {
			if s := m[from]; s != nil {
				s.Ack(uint64(v.CumLocal))
			}
		}
	case *msg.Progress:
		if m := n.fwd[seq.NodeID(v.Child)]; m != nil {
			if s := m[mhNodeID(v.Host)]; s != nil {
				s.Ack(uint64(v.Max))
			}
		}
	}
}

// ingest accepts a source submission at the corresponding node.
func (n *ne) ingest(src seq.NodeID, d *msg.Data) {
	sq := n.wq.ForSource(src)
	sq.Insert(d)
	n.drain(src)
}

// drain forwards the contiguous per-source prefix everywhere it must go:
// around the ring and down the tree, immediately (no ordering wait).
func (n *ne) drain(src seq.NodeID) {
	sq := n.wq.ForSource(src)
	for {
		lo, hi := sq.ReadyRange()
		if lo == 0 {
			return
		}
		for _, d := range sq.Extract(lo, hi) {
			n.fanout(src, d)
		}
	}
}

func (n *ne) fanout(src seq.NodeID, d *msg.Data) {
	v := n.view
	// Ring forwarding: top ring stops before the source's corresponding
	// node; other rings stop before the leader.
	if v.Next != seq.None && v.Next != n.id {
		stop := v.Leader
		if v.IsTop {
			stop = src
		}
		if v.Next != stop {
			n.send(src, v.Next, d)
		}
	}
	for _, c := range v.Children {
		n.send(src, c, d)
	}
	for _, h := range n.e.H.HostsAt(n.id) {
		n.send(src, mhNodeID(h), d)
	}
}

func (n *ne) send(src, dest seq.NodeID, d *msg.Data) {
	m := n.fwd[src]
	if m == nil {
		m = make(map[seq.NodeID]*transport.Sender)
		n.fwd[src] = m
	}
	s := m[dest]
	if s == nil {
		cfg := n.e.Cfg.Hop
		if uint32(dest) > MHIDOffset {
			cfg = n.e.Cfg.Wireless
		}
		if !n.e.Net.Linked(n.id, dest) {
			n.e.Net.Connect(n.id, dest, netsim.DefaultWired)
		}
		s = transport.NewSender(n.e.Net, n.id, dest, cfg)
		m[dest] = s
	}
	s.Send(uint64(d.LocalSeq), d)
}

// mh delivers per-source FIFO streams to the application.
type mh struct {
	e       *Engine
	id      seq.HostID
	ap      seq.NodeID
	streams map[seq.NodeID]*stream
}

type stream struct {
	last    seq.LocalSeq
	pending map[seq.LocalSeq]*msg.Data
}

func (m *mh) Recv(from seq.NodeID, message msg.Message) {
	d, ok := message.(*msg.Data)
	if !ok {
		return
	}
	st := m.streams[d.SourceNode]
	if st == nil {
		st = &stream{pending: make(map[seq.LocalSeq]*msg.Data)}
		m.streams[d.SourceNode] = st
	}
	if d.LocalSeq <= st.last {
		m.ack(d.SourceNode, st.last)
		return
	}
	st.pending[d.LocalSeq] = d
	for {
		nd, ok := st.pending[st.last+1]
		if !ok {
			break
		}
		delete(st.pending, st.last+1)
		st.last++
		m.e.Log.deliver(uint32(m.id), nd.SourceNode, nd.LocalSeq, m.e.Net.Now())
	}
	m.ack(d.SourceNode, st.last)
}

func (m *mh) ack(src seq.NodeID, cum seq.LocalSeq) {
	// Progress carries (source via Child field, host, cumulative local).
	m.e.Net.Send(mhNodeID(m.id), m.ap, &msg.Progress{Child: src, Host: m.id, Max: seq.GlobalSeq(cum)})
}

// Hosts returns all host ids, ascending (test helper).
func (e *Engine) Hosts() []seq.HostID {
	out := make([]seq.HostID, 0, len(e.mhs))
	for h := range e.mhs {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
