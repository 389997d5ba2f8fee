package wire

import (
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/msg"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Handler consumes the messages of one received section. It runs on the
// transport's executor (see Start).
type Handler func(from seq.NodeID, msgs []msg.Message)

// GroupHooks is one hosted group's receive surface, installed with
// Register. All three callbacks run on the transport's executor: a
// datagram's hooks run one after another, in frame order, in one call.
type GroupHooks struct {
	// Handler receives the protocol messages of sections addressed to
	// this group from senders the group knows (has refcounted into the
	// peer table).
	Handler Handler
	// OnControl receives section-level control flags (FlagDone gossip).
	OnControl func(from seq.NodeID, flags uint8)
	// OnUnknown receives this group's sections from senders the group
	// does not (yet) know — either not in the peer table at all, or in
	// it only on behalf of other groups. Live membership uses it for
	// the legitimate unknown-sender messages: a JoinReq from a process
	// that is not yet a member, and partition-probe Heartbeats from
	// evicted members.
	OnUnknown func(from seq.NodeID, msgs []msg.Message)
}

// Faults is the optional deterministic loss/jitter injector at the
// socket layer. It acts on inbound datagrams — after the kernel, before
// the protocol — so tests can force packet loss and delay-induced
// reordering on loopback, where the real network is too polite. Draws
// come from a seeded splitmix64 stream, so a run's drop pattern is
// reproducible from the seed (arrival order on a real socket is not, so
// unlike the simulator this is statistical, not trace-exact,
// determinism).
type Faults struct {
	Seed uint64
	// Loss is the probability an inbound datagram is dropped.
	Loss float64
	// Jitter delays each inbound datagram that carries group traffic by a
	// draw uniform in [0, Jitter), reordering datagrams that arrive close
	// together; the transport's own clock probes are never delayed. The
	// delayed dispatch rides a Go timer, which the runtime's netpoller
	// fires at a granularity of about 1 ms, so the delay a datagram
	// really sees is the draw rounded up to that quantum: a 500 µs
	// Jitter delays nearly every datagram by ~1.1 ms, not 250 µs on
	// average.
	Jitter time.Duration
}

// DropRule is one entry of the programmable drop matrix: inbound frames
// from peer From (0 = any sender) are dropped with probability Prob while
// the transport's uptime clock is inside [FromMS, UntilMS) milliseconds
// (UntilMS 0 = forever). The matrix sits before the peer table, so it
// also cuts probe traffic from senders the ring has since evicted —
// exactly what a partition severs. The harness writes symmetric rules on
// both sides of a split to emulate a full network cut.
//
// DataSource, when nonzero, turns the rule body-targeted: instead of
// cutting whole datagrams it strips every message body (msg.Data)
// sourced by that member out of matching frames — whoever relayed it —
// and lets everything else in the frame (token, acks, heartbeats,
// Nacks) through. Token circulation and the data stream share every
// ring link, so datagram-level drops can never separate orderings from
// the bodies they order; a body-targeted rule is how chaos tests starve
// the ring of one member's payloads while its assignments still spread.
type DropRule struct {
	From       uint32  `json:"from"`
	FromMS     int64   `json:"from_ms"`
	UntilMS    int64   `json:"until_ms,omitempty"`
	Prob       float64 `json:"prob"`
	DataSource uint32  `json:"data_source,omitempty"`
}

// TransportConfig configures one UDP transport endpoint.
type TransportConfig struct {
	// Self is the local node identity stamped on outbound frames.
	Self seq.NodeID
	// Listen is the UDP address to bind ("127.0.0.1:0" for an
	// OS-assigned port). Ignored when ListenFD is set.
	Listen string
	// ListenFD, when > 0, is an inherited datagram-socket file
	// descriptor (the multi-process harness binds every member's socket
	// before spawning, eliminating port races).
	ListenFD int
	// MaxDatagram bounds encoded frame size; 0 means the package
	// default.
	MaxDatagram int
	// Faults optionally injects loss/jitter on receive.
	Faults Faults
	// Drops is the programmable per-peer, time-windowed drop matrix
	// (partition emulation). Checked on receive, before the peer table.
	Drops []DropRule
}

// PeerStats counts one peer's traffic as seen by this endpoint. The
// datagram-level counters are shared across every group talking to the
// peer; GroupStats splits the message volume per group.
type PeerStats struct {
	SentDatagrams uint64 `json:"sent_datagrams"`
	SentMsgs      uint64 `json:"sent_msgs"`
	SentBytes     uint64 `json:"sent_bytes"`
	RecvDatagrams uint64 `json:"recv_datagrams"`
	RecvMsgs      uint64 `json:"recv_msgs"`
	RecvBytes     uint64 `json:"recv_bytes"`
	// OutOfOrder counts datagrams arriving with a sequence number at or
	// below the highest already seen (reordered or duplicated);
	// GapsSeen sums the sequence jumps above highest+1 (an upper bound
	// on datagrams lost in flight, before any later reordered arrival).
	OutOfOrder uint64 `json:"out_of_order"`
	GapsSeen   uint64 `json:"gaps_seen"`
	// InjectedDrops/InjectedDelays count the fault injector's actions.
	InjectedDrops  uint64 `json:"injected_drops"`
	InjectedDelays uint64 `json:"injected_delays"`
}

// GroupStats counts one group's share of the shared socket's traffic.
// Sent/Recv bytes include each section's tag and length prefixes, so the
// sums across groups approach — but (header sharing) do not reach — the
// datagram byte totals.
type GroupStats struct {
	SentMsgs  uint64 `json:"sent_msgs"`
	SentBytes uint64 `json:"sent_bytes"`
	RecvMsgs  uint64 `json:"recv_msgs"`
	RecvBytes uint64 `json:"recv_bytes"`
}

// Stats is a snapshot of the transport's counters.
type Stats struct {
	Peers  map[seq.NodeID]PeerStats `json:"peers"`
	Groups map[uint32]GroupStats    `json:"groups,omitempty"`
	// RecvUnknown counts sections that arrived for a registered group
	// from a sender that group does not know (JoinReqs, partition
	// probes, stale traffic from evicted members).
	RecvUnknown  uint64 `json:"recv_unknown"`
	DecodeErrors uint64 `json:"decode_errors"`
	Oversize     uint64 `json:"oversize"`
	MatrixDrops  uint64 `json:"matrix_drops"`
	// UnknownGroupDrops counts sections addressed to a group this
	// daemon has not (yet) registered. Such traffic — a peer racing
	// ahead of a late-starting group, or a misconfigured sender — is
	// dropped and counted, never fatal to the reader.
	UnknownGroupDrops uint64 `json:"unknown_group_drops"`
}

type peer struct {
	addr  *net.UDPAddr
	txSeq uint64
	rxMax uint64
	st    PeerStats
	// refs tracks which groups know this peer as a ring member. The
	// entry (and its datagram sequencing) lives as long as any group
	// holds a reference; sections for a group without a reference are
	// routed to that group's OnUnknown hook.
	refs map[uint32]struct{}
}

// Transport is one UDP endpoint shared by every group a daemon hosts: a
// socket, a group-refcounted peer table, per-peer sequencing and stats,
// per-group demultiplexing of inbound sections, and an optional fault
// injector. Send batches messages into framed datagrams; received
// datagrams are decoded and their sections handed to the GroupHooks
// installed by Register.
//
// Datagrams to a peer leave in seqno order as long as one goroutine
// sends. In a daemon that is its driver: the transport's executor, which
// also answers clock probes. t.mu guards the peer table, the handlers
// and the counters against the readers of Stats and against a
// standalone transport's reader and delay timers.
type Transport struct {
	self seq.NodeID
	conn *net.UDPConn
	max  int

	// drv, when set by startOn, is the executor every received
	// datagram's dispatch runs on; nil runs it on the reader.
	drv *Driver
	// jitter draws the injected delays. Reader goroutine only.
	jitter *sim.RNG

	mu                sync.Mutex
	peers             map[seq.NodeID]*peer
	handlers          map[uint32]GroupHooks
	groupStats        map[uint32]*GroupStats
	rng               *sim.RNG
	faults            Faults
	drops             []DropRule
	started           time.Time
	matrixDrops       uint64
	closed            bool
	recvUnknown       uint64
	decodeErrors      uint64
	oversize          uint64
	unknownGroupDrops uint64

	wg sync.WaitGroup

	// removedStats aggregates the counters of peers dropped by
	// RemovePeer, keyed under node 0 in Stats.
	removedStats PeerStats

	// offsets holds the best (lowest-RTT) clock-offset sample per peer,
	// collected from TimeSync pongs.
	offsets map[seq.NodeID]offsetSample

	// tracer, when attached and active, records datagram tx/rx spans
	// for sampled Data messages. Set before Start; read without the
	// mutex (writes happen-before the reader goroutine starts).
	tracer *telemetry.Tracer
}

// SetTracer attaches the trace plane. Call before Start.
func (t *Transport) SetTracer(tr *telemetry.Tracer) { t.tracer = tr }

// offsetSample is one NTP-lite estimate: offset ≈ remote clock − local
// clock, believed to within ±rtt/2.
type offsetSample struct {
	offset time.Duration
	rtt    time.Duration
}

// Listen binds the socket described by cfg. Groups install their receive
// hooks with Register and their peers with AddPeer; the reader starts
// with Start.
func Listen(cfg TransportConfig) (*Transport, error) {
	var conn *net.UDPConn
	if cfg.ListenFD > 0 {
		f := os.NewFile(uintptr(cfg.ListenFD), "ringnet-udp")
		if f == nil {
			return nil, fmt.Errorf("wire: bad listen fd %d", cfg.ListenFD)
		}
		pc, err := net.FilePacketConn(f)
		f.Close() // FilePacketConn dups the descriptor
		if err != nil {
			return nil, fmt.Errorf("wire: inheriting fd %d: %w", cfg.ListenFD, err)
		}
		uc, ok := pc.(*net.UDPConn)
		if !ok {
			pc.Close()
			return nil, fmt.Errorf("wire: fd %d is %T, not UDP", cfg.ListenFD, pc)
		}
		conn = uc
	} else {
		addr, err := net.ResolveUDPAddr("udp", cfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("wire: listen address: %w", err)
		}
		conn, err = net.ListenUDP("udp", addr)
		if err != nil {
			return nil, fmt.Errorf("wire: bind: %w", err)
		}
	}
	max := cfg.MaxDatagram
	if max <= 0 {
		max = MaxDatagram
	}
	return &Transport{
		self:       cfg.Self,
		conn:       conn,
		max:        max,
		peers:      make(map[seq.NodeID]*peer),
		handlers:   make(map[uint32]GroupHooks),
		groupStats: make(map[uint32]*GroupStats),
		offsets:    make(map[seq.NodeID]offsetSample),
		rng:        sim.NewRNG(cfg.Faults.Seed),
		jitter:     sim.NewRNG(cfg.Faults.Seed ^ 0x9e3779b97f4a7c15),
		faults:     cfg.Faults,
		drops:      cfg.Drops,
		started:    time.Now(),
	}, nil
}

// LocalAddr returns the bound socket address.
func (t *Transport) LocalAddr() *net.UDPAddr { return t.conn.LocalAddr().(*net.UDPAddr) }

// Register installs the receive hooks for one group. Sections addressed
// to group demultiplex to these hooks; sections for unregistered groups
// are dropped and counted (Stats.UnknownGroupDrops). Group 0 is the
// transport's own control channel and cannot be registered. A group may
// be registered after traffic for it has already arrived — early
// datagrams are lost (UDP semantics), not fatal.
func (t *Transport) Register(group uint32, hooks GroupHooks) error {
	if group == GroupControl {
		return fmt.Errorf("wire: group id %d is reserved for transport control", GroupControl)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.handlers[group]; dup {
		return fmt.Errorf("wire: group %d already registered", group)
	}
	t.handlers[group] = hooks
	if _, ok := t.groupStats[group]; !ok {
		t.groupStats[group] = &GroupStats{}
	}
	return nil
}

// AddPeer installs the address of a remote member on behalf of group.
// The underlying peer entry (datagram sequencing, stats) is shared by
// every group that references the peer; re-adding refreshes the address
// and keeps counters (live membership re-learns addresses from
// RingUpdates).
func (t *Transport) AddPeer(group uint32, id seq.NodeID, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("wire: peer %v address %q: %w", id, addr, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.peers[id]
	if !ok {
		p = &peer{refs: make(map[uint32]struct{})}
		t.peers[id] = p
	}
	p.addr = ua
	p.refs[group] = struct{}{}
	return nil
}

// RemovePeer drops group's reference to a member (ring removal after the
// lame-duck grace). The peer entry survives while other groups still
// reference it; when the last reference goes, its stats are folded into
// the dead-peer aggregate so Stats stays complete, and subsequent frames
// from it count as unknown.
func (t *Transport) RemovePeer(group uint32, id seq.NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.peers[id]
	if !ok {
		return
	}
	delete(p.refs, group)
	if len(p.refs) == 0 {
		t.removedStats.merge(p.st)
		delete(t.peers, id)
	}
}

// HasPeer reports whether group references peer id.
func (t *Transport) HasPeer(group uint32, id seq.NodeID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.peers[id]
	if !ok {
		return false
	}
	_, ok = p.refs[group]
	return ok
}

func (s *PeerStats) merge(o PeerStats) {
	s.SentDatagrams += o.SentDatagrams
	s.SentMsgs += o.SentMsgs
	s.SentBytes += o.SentBytes
	s.RecvDatagrams += o.RecvDatagrams
	s.RecvMsgs += o.RecvMsgs
	s.RecvBytes += o.RecvBytes
	s.OutOfOrder += o.OutOfOrder
	s.GapsSeen += o.GapsSeen
	s.InjectedDrops += o.InjectedDrops
	s.InjectedDelays += o.InjectedDelays
}

// Start launches the reader goroutine, which also runs each datagram's
// dispatch (or, when jittered, its delay timer does). Groups may
// Register before or after Start; sections for groups registered later
// are dropped and counted until the registration lands.
func (t *Transport) Start() {
	t.wg.Add(1)
	go t.readLoop()
}

// startOn is Start for a daemon: each received datagram's dispatch runs
// as one call on d, the daemon's event loop, so the reader only reads,
// copies and decodes. Stop d before Close.
func (t *Transport) startOn(d *Driver) {
	t.drv = d
	t.Start()
}

// Send frames msgs into a single-section datagram stream for group and
// transmits it to peer to. Equivalent to SendSections with one section.
func (t *Transport) Send(group uint32, to seq.NodeID, msgs ...msg.Message) error {
	if len(msgs) == 0 {
		return nil
	}
	return t.SendSections(to, []Section{{Group: group, Msgs: msgs}})
}

// SendControl transmits one message-less control section carrying flags
// for group.
func (t *Transport) SendControl(group uint32, to seq.NodeID, flags uint8) error {
	if flags == 0 {
		return nil
	}
	return t.SendSections(to, []Section{{Group: group, Flags: flags}})
}

// SendSections packs the given sections into as few datagrams as fit the
// budget and transmits them to peer to — the multi-group path the shared
// outbox flushes through. A section whose messages overflow one datagram
// is split across several (its flags ride the first); a single message
// larger than the budget is dropped and counted (the protocol's token
// compaction caps the table, and so every message, far below it).
//
// t.mu covers only peer lookup, sequence reservation, and stats; encoding
// and the write syscalls run outside it, so a scrape of Stats never
// waits behind a burst of sends.
func (t *Transport) SendSections(to seq.NodeID, secs []Section) error {
	// Plan datagram boundaries first: they depend only on the immutable
	// budget, so this runs outside the lock. Each message is sized once —
	// or not at all, when its section carries the size the outbox
	// recorded — and the plan counts the longest header, since the seqno
	// it will carry is reserved below. A planned section is a sub-slice
	// of its input: splitting one costs no copy.
	var frames []plannedFrame
	cur := plannedFrame{size: maxHeader}
	flush := func() {
		if len(cur.secs) > 0 {
			frames = append(frames, cur)
			cur = plannedFrame{size: maxHeader}
		}
	}
	openSection := func(group uint32, flags uint8, tag int) {
		if cur.size+tag > t.max || len(cur.secs) >= maxFrameSections {
			flush()
		}
		cur.secs = append(cur.secs, Section{Group: group, Flags: flags})
		cur.secBytes = append(cur.secBytes, tag)
		cur.size += tag
	}
	var firstErr error
	oversize := 0
	for _, s := range secs {
		sizes := s.sizes
		if sizes == nil && len(s.Msgs) > 0 {
			sizes = make([]int, len(s.Msgs))
			for i, m := range s.Msgs {
				sizes[i] = m.WireSize()
			}
		}
		tag := tagSize(s.Group)
		flags := s.Flags // rides the section's first chunk
		chunk := -1      // index in s.Msgs where the open chunk starts
		for i, m := range s.Msgs {
			need := framedSize(sizes[i])
			if need > t.max-maxHeader-tag {
				oversize++
				if firstErr == nil {
					firstErr = fmt.Errorf("%w: %v is %d bytes", ErrOversize, m.Kind(), need)
				}
				chunk = -1
				continue
			}
			if chunk < 0 || cur.size+need > t.max || i-chunk >= maxFrameMsgs {
				if cur.size+tag+need > t.max {
					flush()
				}
				openSection(s.Group, flags, tag)
				flags, chunk = 0, i
			}
			last := len(cur.secs) - 1
			cur.secs[last].Msgs = s.Msgs[chunk : i+1]
			cur.secs[last].sizes = sizes[chunk : i+1]
			cur.secBytes[last] += need
			cur.size += need
		}
		if flags != 0 {
			// A message-less section, or every message was oversize: the
			// flags still must travel.
			openSection(s.Group, flags, tag)
		}
	}
	flush()
	if len(frames) == 0 {
		return firstErr
	}

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return net.ErrClosed
	}
	p := t.peers[to]
	if p == nil {
		t.mu.Unlock()
		return fmt.Errorf("wire: unknown peer %v", to)
	}
	t.oversize += uint64(oversize)
	base := p.txSeq + 1
	p.txSeq += uint64(len(frames))
	addr := p.addr
	for i := range frames {
		frames[i].size += headerSize(t.self, base+uint64(i)) - maxHeader
	}
	for _, f := range frames {
		p.st.SentDatagrams++
		p.st.SentBytes += uint64(f.size)
		for i, s := range f.secs {
			p.st.SentMsgs += uint64(len(s.Msgs))
			gs := t.groupStats[s.Group]
			if gs == nil {
				gs = &GroupStats{}
				t.groupStats[s.Group] = gs
			}
			gs.SentMsgs += uint64(len(s.Msgs))
			gs.SentBytes += uint64(f.secBytes[i])
		}
	}
	t.mu.Unlock()

	traced := t.tracer.Active()
	for i, f := range frames {
		buf, err := encodeFrame(t.self, base+uint64(i), f.secs, f.size)
		if err == nil {
			_, err = t.conn.WriteToUDP(buf, addr)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if traced && err == nil {
			for _, s := range f.secs {
				for _, m := range s.Msgs {
					if src, local, global, ok := traceKeyOf(m); ok {
						t.tracer.Span(telemetry.StageTX, s.Group, src, local, global, uint32(to))
					}
				}
			}
		}
	}
	return firstErr
}

// plannedFrame is one datagram as SendSections laid it out: its sections,
// each section's encoded size (tag included), and the frame's (counting
// maxHeader until the datagram's seqno is reserved).
type plannedFrame struct {
	secs     []Section
	secBytes []int
	size     int
}

// Stats returns a snapshot of all counters.
func (t *Transport) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Stats{
		Peers:             make(map[seq.NodeID]PeerStats, len(t.peers)),
		Groups:            make(map[uint32]GroupStats, len(t.groupStats)),
		RecvUnknown:       t.recvUnknown,
		DecodeErrors:      t.decodeErrors,
		Oversize:          t.oversize,
		MatrixDrops:       t.matrixDrops,
		UnknownGroupDrops: t.unknownGroupDrops,
	}
	for id, p := range t.peers {
		s.Peers[id] = p.st
	}
	for g, gs := range t.groupStats {
		s.Groups[g] = *gs
	}
	if t.removedStats != (PeerStats{}) {
		// Counters of peers removed from the ring, folded under node 0.
		s.Peers[0] = t.removedStats
	}
	return s
}

// --- clock-offset estimation (NTP-lite) ---

// Clock calibration: clockSyncRounds ping rounds, clockSyncGap apart.
const (
	clockSyncRounds = 4
	clockSyncGap    = 25 * sim.Millisecond
)

// calibrate probes the clocks of peers in clockSyncRounds rounds on s,
// the first at once: each pong records the classic offset estimate
// T2 − (T1+T4)/2, and the sample with the smallest round trip (least
// asymmetric queueing error) is kept. Clock traffic rides group 0, the
// transport's own channel, so one daemon-level calibration serves every
// hosted group. Runs on s's goroutine, the transport's one sender.
func (t *Transport) calibrate(s *sim.Scheduler, peers []seq.NodeID) {
	if len(peers) == 0 {
		return
	}
	ping := func() {
		for _, id := range peers {
			// Best-effort: lossy sockets drop some.
			t.Send(GroupControl, id, &msg.TimeSync{Phase: 0, T1: time.Now().UnixNano()})
		}
	}
	ping()
	for r := sim.Time(1); r < clockSyncRounds; r++ {
		s.After(r*clockSyncGap, ping)
	}
}

// OffsetOf returns the estimated clock offset of peer id relative to the
// local clock (remote − local), if any pong was collected.
func (t *Transport) OffsetOf(id seq.NodeID) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.offsets[id]
	return s.offset, ok
}

// PeerOffsets returns every peer's best clock-sync estimate (offset and
// the RTT of the sample it came from).
func (t *Transport) PeerOffsets() map[seq.NodeID]PeerOffset {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[seq.NodeID]PeerOffset, len(t.offsets))
	for id, s := range t.offsets {
		out[id] = PeerOffset{Offset: s.offset, RTT: s.rtt}
	}
	return out
}

// handleTimeSync consumes one TimeSync at the transport layer, before the
// datagram's group hooks run: pings are answered at once (minimizing the
// asymmetric processing delay the offset formula cannot cancel), pongs
// fold into the per-peer estimate.
func (t *Transport) handleTimeSync(from seq.NodeID, v *msg.TimeSync) {
	if v.Phase == 0 {
		t.Send(GroupControl, from, &msg.TimeSync{Phase: 1, T1: v.T1, T2: time.Now().UnixNano()})
		return
	}
	t4 := time.Now().UnixNano()
	rtt := time.Duration(t4 - v.T1)
	if rtt < 0 {
		return
	}
	off := time.Duration(v.T2 - (v.T1+t4)/2)
	t.mu.Lock()
	if old, ok := t.offsets[from]; !ok || rtt < old.rtt {
		t.offsets[from] = offsetSample{offset: off, rtt: rtt}
	}
	t.mu.Unlock()
}

// Close shuts the socket and joins the reader and all pending delay
// timers; a datagram handed to the executor afterwards is dropped. On a
// standalone transport no hook invocation is in flight after Close
// returns; a daemon stops its driver first.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	err := t.conn.Close()
	t.wg.Wait()
	return err
}

func (t *Transport) readLoop() {
	defer t.wg.Done()
	buf := make([]byte, 1<<16)
	for {
		n, _, err := t.conn.ReadFromUDP(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient (e.g. ICMP-induced) errors: keep reading.
			continue
		}
		pkt := make([]byte, n)
		copy(pkt, buf[:n])
		t.receive(pkt)
	}
}

// Port is one group's view of the shared transport: every call carries
// the group's id, so group-local code (the membership plane, the done
// barrier) keeps single-group signatures while the socket, peer table,
// and clock sync stay daemon-wide.
type Port struct {
	tr    *Transport
	group uint32
}

// NewPort scopes tr to group.
func NewPort(tr *Transport, group uint32) *Port { return &Port{tr: tr, group: group} }

// Send transmits msgs to peer to in this group's section stream.
func (p *Port) Send(to seq.NodeID, msgs ...msg.Message) error { return p.tr.Send(p.group, to, msgs...) }

// SendControl transmits control flags to peer to, scoped to this group.
func (p *Port) SendControl(to seq.NodeID, flags uint8) error {
	return p.tr.SendControl(p.group, to, flags)
}

// AddPeer references peer id for this group.
func (p *Port) AddPeer(id seq.NodeID, addr string) error { return p.tr.AddPeer(p.group, id, addr) }

// RemovePeer drops this group's reference to peer id.
func (p *Port) RemovePeer(id seq.NodeID) { p.tr.RemovePeer(p.group, id) }

// HasPeer reports whether this group references peer id.
func (p *Port) HasPeer(id seq.NodeID) bool { return p.tr.HasPeer(p.group, id) }

// Calibrate probes the clocks of peers from s (daemon-wide, group 0).
func (p *Port) Calibrate(s *sim.Scheduler, peers ...seq.NodeID) { p.tr.calibrate(s, peers) }

// delivery is one section routed to a group's hooks, resolved under the
// lock and executed outside it.
type delivery struct {
	hooks   GroupHooks
	sec     Section
	unknown bool // sender unknown to this group: route to OnUnknown
}

// receive decodes one datagram on the reader and hands the rest of its
// handling to the executor as one call: the daemon's driver (startOn),
// or the reader itself. A datagram carrying group traffic first waits
// out its injected jitter on a timer of its own, drawn here so the
// hand-off stays one call. Undecodable datagrams are counted and dropped.
func (t *Transport) receive(pkt []byte) {
	f, err := DecodeFrame(pkt)
	if err != nil {
		t.mu.Lock()
		t.decodeErrors++
		t.mu.Unlock()
		return
	}
	run := func() { t.deliver(f, len(pkt)) }
	if t.faults.Jitter > 0 && slices.ContainsFunc(f.Sections, groupTraffic) {
		if delay := time.Duration(t.jitter.Int63n(int64(t.faults.Jitter))); delay > 0 {
			t.wg.Add(1)
			time.AfterFunc(delay, func() {
				defer t.wg.Done()
				t.exec(run)
			})
			return
		}
	}
	t.exec(run)
}

func groupTraffic(s Section) bool { return s.Group != GroupControl }

// exec runs fn on the transport's executor.
func (t *Transport) exec(fn func()) {
	if t.drv != nil {
		t.drv.Call(fn)
		return
	}
	fn()
}

// deliver runs one decoded datagram through the drop matrix, the loss
// injector, sequencing and stats, then answers or records its clock
// probes and runs its sections' hooks in frame order. A sender the
// transport does not know gets no fault injection or sequencing: its
// sections route to OnUnknown (join solicitations, partition probes)
// and its clock probes are ignored. Sections for unregistered groups are
// dropped and counted — a late-starting group loses its early traffic
// to UDP semantics but never wedges the transport.
func (t *Transport) deliver(f Frame, size int) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	// Drop matrix: partition emulation cuts the frame before the peer
	// table, so probe traffic from already-evicted senders is severed too.
	// Body-targeted rules (DataSource) never cut the frame; they collect
	// here and strip matching payloads from the sections below.
	var strips []DropRule
	if len(t.drops) > 0 {
		ms := time.Since(t.started).Milliseconds()
		for _, r := range t.drops {
			if r.From != 0 && seq.NodeID(r.From) != f.From {
				continue
			}
			if ms < r.FromMS || (r.UntilMS > 0 && ms >= r.UntilMS) {
				continue
			}
			if r.DataSource != 0 {
				strips = append(strips, r)
				continue
			}
			if r.Prob >= 1 || t.rng.Bool(r.Prob) {
				t.matrixDrops++
				t.mu.Unlock()
				return
			}
		}
	}
	p, known := t.peers[f.From]
	if known {
		if t.faults.Loss > 0 && t.rng.Bool(t.faults.Loss) {
			p.st.InjectedDrops++
			t.mu.Unlock()
			return
		}
		p.st.RecvDatagrams++
		p.st.RecvBytes += uint64(size)
		if f.Seqno <= p.rxMax && p.rxMax != 0 {
			p.st.OutOfOrder++
		} else {
			if f.Seqno > p.rxMax+1 && p.rxMax != 0 {
				p.st.GapsSeen += f.Seqno - p.rxMax - 1
			}
			p.rxMax = f.Seqno
		}
	}
	var dispatches []delivery
	var syncs []*msg.TimeSync
	for _, sec := range f.Sections {
		if sec.Group == GroupControl {
			// Clock probes are transport business: answered or recorded
			// below, before any hook runs, and kept out of protocol
			// dispatch.
			if known {
				for _, m := range sec.Msgs {
					if ts, ok := m.(*msg.TimeSync); ok {
						syncs = append(syncs, ts)
					}
				}
				p.st.RecvMsgs += uint64(len(sec.Msgs))
			}
			continue
		}
		hooks, reg := t.handlers[sec.Group]
		if !reg {
			t.unknownGroupDrops++
			continue
		}
		if !known {
			t.recvUnknown++
			dispatches = append(dispatches, delivery{hooks: hooks, sec: sec, unknown: true})
			continue
		}
		if len(strips) > 0 {
			sec.Msgs = t.stripBodies(strips, sec.Msgs)
			if len(sec.Msgs) == 0 && sec.Flags == 0 {
				continue
			}
		}
		p.st.RecvMsgs += uint64(len(sec.Msgs))
		gs := t.groupStats[sec.Group]
		if gs == nil {
			gs = &GroupStats{}
			t.groupStats[sec.Group] = gs
		}
		gs.RecvMsgs += uint64(len(sec.Msgs))
		gs.RecvBytes += uint64(sec.wireLen)
		_, reffed := p.refs[sec.Group]
		if !reffed {
			// Known socket peer, but a stranger to this group
			// (partition probe, stale traffic after eviction).
			t.recvUnknown++
		}
		dispatches = append(dispatches, delivery{hooks: hooks, sec: sec, unknown: !reffed})
	}
	if known && t.faults.Jitter > 0 && len(dispatches) > 0 {
		p.st.InjectedDelays++
	}
	t.mu.Unlock()
	for _, ts := range syncs {
		t.handleTimeSync(f.From, ts)
	}
	// RX spans stamp when the protocol takes the datagram: after any
	// injected jitter, which stands in for the network.
	if t.tracer.Active() {
		for _, d := range dispatches {
			if d.unknown {
				continue
			}
			for _, m := range d.sec.Msgs {
				if src, local, global, ok := traceKeyOf(m); ok {
					t.tracer.Span(telemetry.StageRX, d.sec.Group, src, local, global, uint32(f.From))
				}
			}
		}
	}
	for _, d := range dispatches {
		if d.unknown {
			if d.hooks.OnUnknown != nil && len(d.sec.Msgs) > 0 {
				d.hooks.OnUnknown(f.From, d.sec.Msgs)
			}
			continue
		}
		if d.sec.Flags != 0 && d.hooks.OnControl != nil {
			d.hooks.OnControl(f.From, d.sec.Flags)
		}
		if len(d.sec.Msgs) > 0 && d.hooks.Handler != nil {
			d.hooks.Handler(f.From, d.sec.Msgs)
		}
	}
}

// stripBodies applies the body-targeted drop rules to one section's
// messages: every msg.Data sourced by a rule's DataSource is removed
// with the rule's probability, whoever relayed it. Caller holds t.mu.
func (t *Transport) stripBodies(rules []DropRule, msgs []msg.Message) []msg.Message {
	kept := msgs[:0]
	for _, m := range msgs {
		dropped := false
		if d, ok := m.(*msg.Data); ok {
			for _, r := range rules {
				if seq.NodeID(r.DataSource) == d.SourceNode && (r.Prob >= 1 || t.rng.Bool(r.Prob)) {
					dropped = true
					break
				}
			}
		}
		if dropped {
			t.matrixDrops++
			continue
		}
		kept = append(kept, m)
	}
	return kept
}
