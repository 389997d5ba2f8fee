// Package msg defines the wire messages exchanged by RingNet protocol
// entities: multicast data, per-hop acknowledgements, the ordering token,
// token-recovery control, membership and handoff control, and delivery
// progress reports. A compact binary encoding is provided so simulated
// links can account for realistic message sizes.
package msg

import (
	"fmt"

	"repro/internal/seq"
)

// Kind discriminates message types on the wire.
type Kind uint8

const (
	KindInvalid Kind = iota
	// KindData carries one multicast payload (paper §4.1 message
	// attributes: SourceNode, LocalSeqNo, OrderingNode, GlobalSeqNo,
	// Payload).
	KindData
	// KindAck acknowledges receipt of data up to a sequence number on a
	// local scope (one hop). Used by the retransmission scheme.
	KindAck
	// KindNack requests retransmission of specific sequence numbers.
	KindNack
	// KindToken carries the OrderingToken along the top ring.
	KindToken
	// KindTokenAck acknowledges token receipt (reliable token transfer).
	KindTokenAck
	_ // 6, retired: the Token-Loss signal is a call (Engine.OnTokenLoss), never a message
	// KindTokenRegen is the Token-Regeneration message that traverses
	// the top ring encapsulating a NewOrderingToken.
	KindTokenRegen
	_ // 8, retired: the Multiple-Token signal is Engine.OnMultipleToken
	// KindJoin/KindLeave propagate membership changes up the hierarchy.
	KindJoin
	KindLeave
	// KindHandoffNotify tells an AP that an MH arrived, carrying the
	// MH's delivery high-water mark so delivery resumes without gaps.
	KindHandoffNotify
	_ // 12, retired: handoff-leave; a handoff is announced to the new AP only (HandoffNotify)
	// KindReserve asks a nearby AP to pre-build a multicast path
	// (multicast-based smooth handoff, paper §3).
	KindReserve
	// KindProgress reports a child's MaxGlobalSeqNo back to its parent
	// (feeds the parent's WT and garbage collection).
	KindProgress
	// KindHeartbeat keeps failure detectors informed.
	KindHeartbeat
	_ // 16, retired: sources enter through Engine.Submit
	// KindSkip tells a downstream neighbor that a global-sequence range
	// was abandoned after retry exhaustion: the receiver applies the
	// really-lost rule (Received=false, Waiting=false ⇒ Delivered) so
	// its delivery front can move past the gap.
	KindSkip
	// KindJoinReq asks a live ring for membership: a fresh process sends
	// it (repeatedly) to seed members until a RingUpdate containing it
	// arrives. It carries the joiner's UDP address so the coordinator can
	// add it to every member's peer table.
	KindJoinReq
	// KindLeaveReq announces a graceful departure (SIGTERM): the leaver
	// keeps serving retransmissions and forwards any held token, then
	// exits once a RingUpdate excluding it arrives and its couriers drain.
	KindLeaveReq
	// KindRingUpdate disseminates one versioned ring membership epoch
	// from the coordinator to every member (and doubles as the JoinOK:
	// the first update containing the joiner grants membership and
	// carries the stream baseline it resumes from).
	KindRingUpdate
	// KindTimeSync is the NTP-lite ping/pong the wire transport answers
	// itself, on the daemon's event loop before any group sees the
	// datagram, for cross-process clock-offset estimation. It never
	// reaches the protocol core.
	KindTimeSync
	// KindQuorumVote carries one round of the wire membership plane's
	// epoch quorum: a coordinator proposes the next epoch number and each
	// previous-epoch member grants it at most one proposer. An epoch (and
	// therefore an eviction) commits only with a majority of grants, so a
	// partition minority can never advance the ring on its own.
	KindQuorumVote
	// KindRingSummary is the quorum side's merge offer across a healed
	// partition: epoch, delivery front, order-hash fingerprint, and the
	// surviving token's (epoch, hops) stamp, sent to a probing member the
	// ring evicted while partitioned.
	KindRingSummary
	// KindMergeReq is the minority member's answer to a RingSummary: its
	// own epoch/front/hash/token summary plus its transport address,
	// asking the quorum coordinator to splice it back in.
	KindMergeReq
	// KindDone is the wire daemon's termination gossip: its sender has
	// delivered everything it expects in the group whose frame section
	// carries it, and with Drained set, needs nothing more from anyone.
	KindDone
)

// kinds is indexed by the kind byte: each kind's name and the
// constructor Decode fills through the kind's layout (codec.go). A
// retired byte has neither.
var kinds = [...]struct {
	name string
	new  func() Message
}{
	KindInvalid:       {name: "invalid"},
	KindData:          {"data", func() Message { return new(Data) }},
	KindAck:           {"ack", func() Message { return new(Ack) }},
	KindNack:          {"nack", func() Message { return new(Nack) }},
	KindToken:         {"token", func() Message { return new(TokenMsg) }},
	KindTokenAck:      {"token-ack", func() Message { return new(TokenAck) }},
	KindTokenRegen:    {"token-regen", func() Message { return new(TokenRegen) }},
	KindJoin:          {"join", func() Message { return new(Join) }},
	KindLeave:         {"leave", func() Message { return new(Leave) }},
	KindHandoffNotify: {"handoff-notify", func() Message { return new(HandoffNotify) }},
	KindReserve:       {"reserve", func() Message { return new(Reserve) }},
	KindProgress:      {"progress", func() Message { return new(Progress) }},
	KindHeartbeat:     {"heartbeat", func() Message { return new(Heartbeat) }},
	KindSkip:          {"skip", func() Message { return new(Skip) }},
	KindJoinReq:       {"join-req", func() Message { return new(JoinReq) }},
	KindLeaveReq:      {"leave-req", func() Message { return new(LeaveReq) }},
	KindRingUpdate:    {"ring-update", func() Message { return new(RingUpdate) }},
	KindTimeSync:      {"time-sync", func() Message { return new(TimeSync) }},
	KindQuorumVote:    {"quorum-vote", func() Message { return new(QuorumVote) }},
	KindRingSummary:   {"ring-summary", func() Message { return new(RingSummary) }},
	KindMergeReq:      {"merge-req", func() Message { return new(MergeReq) }},
	KindDone:          {"done", func() Message { return new(Done) }},
}

func (k Kind) String() string {
	if int(k) < len(kinds) && kinds[k].name != "" {
		return kinds[k].name
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Message is any RingNet wire message.
type Message interface {
	Kind() Kind
	// WireSize is the encoded size in bytes, used by the bandwidth model.
	// For the kinds this package defines it is exactly len(Encode(m)).
	WireSize() int
}

// Data is one multicast message (paper §4.1). Before ordering,
// GlobalSeq is 0 and OrderingNode is None; Order-Assignment fills them in.
//
// AckCum, when non-zero, piggybacks the sender's cumulative global
// acknowledgement on a hop where data already flows toward the
// acknowledgee (e.g. a two-node top ring, where a node's WQ-forwarding
// successor is also its upstream), saving a standalone Ack message.
type Data struct {
	Group        seq.GroupID
	SourceNode   seq.NodeID
	LocalSeq     seq.LocalSeq
	OrderingNode seq.NodeID
	GlobalSeq    seq.GlobalSeq
	AckCum       seq.GlobalSeq
	Payload      []byte
}

func (*Data) Kind() Kind      { return KindData }
func (d *Data) WireSize() int { return wireSize(d) }
func (d *Data) Ordered() bool { return d.GlobalSeq != 0 }
func (d *Data) String() string {
	return fmt.Sprintf("data{g=%d src=%v l=%d ord=%v G=%d |p|=%d}",
		d.Group, d.SourceNode, d.LocalSeq, d.OrderingNode, d.GlobalSeq, len(d.Payload))
}

// Clone returns a copy sharing the payload bytes (payloads are immutable
// by convention).
func (d *Data) Clone() *Data {
	c := *d
	return &c
}

// SourceCum is one per-source cumulative acknowledgement inside a
// batched Ack: every message of Source's stream up to Cum was received.
type SourceCum struct {
	Source seq.NodeID
	Cum    seq.LocalSeq
}

// SourceGap is a gap report inside an Ack: the receiver holds Above of
// Source's stream but not everything between the stream's cumulative
// mark (its Batch entry) and Above, so the sender may resend the
// outstanding messages below Above without waiting for its timer.
type SourceGap struct {
	Source seq.NodeID
	Above  seq.LocalSeq
}

// Ack acknowledges, on one hop, cumulative receipt of a stream.
// For top-ring WQ forwarding the stream is (Source, CumLocal) — or, when
// several source streams share the hop, the multi-source Batch; for MQ
// forwarding and delivering the stream is the global order (CumGlobal).
// One Ack may carry both aspects (a coalesced flush acknowledges all
// streams owed to one neighbor at once). Gaps names the Batch sources
// whose receiver holds messages past a hole; it is empty on a gap-free
// hop and then costs no bytes.
type Ack struct {
	Group     seq.GroupID
	From      seq.NodeID
	Source    seq.NodeID
	CumLocal  seq.LocalSeq
	CumGlobal seq.GlobalSeq
	Batch     []SourceCum
	Gaps      []SourceGap
}

func (*Ack) Kind() Kind      { return KindAck }
func (a *Ack) WireSize() int { return wireSize(a) }

// Nack requests retransmission of a specific global sequence range.
type Nack struct {
	Group seq.GroupID
	From  seq.NodeID
	Range seq.Range
}

func (*Nack) Kind() Kind      { return KindNack }
func (n *Nack) WireSize() int { return wireSize(n) }

// TokenMsg carries the ordering token to the next top-ring node.
//
// Base, when set by the sender, is the token version the receiver last
// acknowledged, and the hop travels as a delta from it (seq.Delta): only
// what Token added since, against ~700 bytes for a wire-profile table.
// The sender sets it only when Token.DeltaFrom(Base). A decoded delta
// leaves Token nil and carries Delta instead, which the receiver resolves
// against its own copy of the base; the simulator hands the receiver the
// sender's Token itself, so it never needs to.
type TokenMsg struct {
	From  seq.NodeID
	Token *seq.Token
	Base  *seq.Token
	Delta *seq.Delta
}

func (*TokenMsg) Kind() Kind      { return KindToken }
func (t *TokenMsg) WireSize() int { return wireSize(t) }

// TokenAck acknowledges reliable token transfer. Because the token and
// the WQ data streams circulate the top ring in the same direction, a
// TokenAck travels exactly the path a receiver's pending acknowledgements
// to its ring predecessor would: Cum, when non-nil, piggybacks that
// coalesced Ack (multi-source WQ cums and/or the global cum) so the
// steady state needs no standalone Ack messages on token-active hops.
//
// Hops echoes the acknowledged token's hop count, which strictly
// increases per forward. (Epoch, Next) alone is ambiguous on a real
// network: in a quiescent ring Next never changes, so a delayed
// duplicate ack from an earlier rotation would be indistinguishable
// from the ack of the forward currently in flight — a false confirm
// that loses the token. The sim's fixed-latency FIFO links can never
// reorder an ack behind a full rotation, which is why only the wire
// path exposed this.
type TokenAck struct {
	From  seq.NodeID
	Epoch uint64
	Hops  uint64
	Next  seq.GlobalSeq
	Cum   *Ack
}

func (*TokenAck) Kind() Kind      { return KindTokenAck }
func (t *TokenAck) WireSize() int { return wireSize(t) }

// TokenRegen traverses the top ring during Token-Regeneration,
// encapsulating the best NewOrderingToken seen so far. Origin detects a
// full circulation.
type TokenRegen struct {
	Origin seq.NodeID
	From   seq.NodeID
	Token  *seq.Token
}

func (*TokenRegen) Kind() Kind      { return KindTokenRegen }
func (t *TokenRegen) WireSize() int { return wireSize(t) }

// Join propagates a membership join up the hierarchy. Host is set for MH
// joins; Node for NE attachments. When an AP (re)attaches itself to the
// delivery tree, Resume carries the global sequence number it has already
// delivered: the parent starts the stream at max(Resume, ValidFront),
// skipping what it can no longer retransmit. Resume == 0 means a fresh
// joiner that wants the stream from the parent's current position.
type Join struct {
	Group  seq.GroupID
	Host   seq.HostID
	Node   seq.NodeID
	Batch  uint32 // number of joins batched into this update
	Resume seq.GlobalSeq
}

func (*Join) Kind() Kind      { return KindJoin }
func (j *Join) WireSize() int { return wireSize(j) }

// Leave propagates a membership leave (or failure) up the hierarchy.
type Leave struct {
	Group   seq.GroupID
	Host    seq.HostID
	Node    seq.NodeID
	Failure bool
	Batch   uint32
}

func (*Leave) Kind() Kind      { return KindLeave }
func (l *Leave) WireSize() int { return wireSize(l) }

// HandoffNotify tells the new AP that Host is now attached and has
// delivered everything up to Delivered.
type HandoffNotify struct {
	Group     seq.GroupID
	Host      seq.HostID
	OldAP     seq.NodeID
	Delivered seq.GlobalSeq
}

func (*HandoffNotify) Kind() Kind      { return KindHandoffNotify }
func (h *HandoffNotify) WireSize() int { return wireSize(h) }

// Reserve asks an AP near a handoff target to pre-establish a multicast
// path so an arriving MH finds the flow already present (paper §3).
type Reserve struct {
	Group seq.GroupID
	From  seq.NodeID
	TTL   uint8
}

func (*Reserve) Kind() Kind      { return KindReserve }
func (r *Reserve) WireSize() int { return wireSize(r) }

// Progress reports a child's (or MH's, via its AP) delivery high-water
// mark to its parent; parents record it in WT for garbage collection.
type Progress struct {
	Group seq.GroupID
	Child seq.NodeID
	Host  seq.HostID // set when the reporter is an MH
	Max   seq.GlobalSeq
}

func (*Progress) Kind() Kind      { return KindProgress }
func (p *Progress) WireSize() int { return wireSize(p) }

// Heartbeat keeps neighbor failure detectors alive. Epoch carries the
// sender's current ring-membership epoch (0 in the simulator's
// membership protocol, which has no epochs): the wire coordinator uses
// it as the implicit acknowledgement of RingUpdate dissemination and
// resends updates to members whose heartbeats lag the current epoch.
type Heartbeat struct {
	From  seq.NodeID
	Epoch uint64
}

func (*Heartbeat) Kind() Kind      { return KindHeartbeat }
func (h *Heartbeat) WireSize() int { return wireSize(h) }

// Skip abandons a global-sequence range on one hop: either the sender
// exhausted its retransmission budget for it (really lost), or — with
// Jump set — the range predates the receiver's join point and was never
// meant for it (a stream-position baseline, not a loss). AckCum, when
// non-zero, piggybacks the sender's cumulative global acknowledgement
// exactly like Data.AckCum.
type Skip struct {
	Group  seq.GroupID
	From   seq.NodeID
	Range  seq.Range
	Jump   bool
	AckCum seq.GlobalSeq
}

func (*Skip) Kind() Kind      { return KindSkip }
func (s *Skip) WireSize() int { return wireSize(s) }

// MemberAddr names one ring member and its transport address inside a
// RingUpdate.
type MemberAddr struct {
	Node seq.NodeID
	Addr string
}

// JoinReq asks the ring's coordinator for membership. Node is the
// joiner's identity; Addr is its bound UDP address. A member that is not
// the coordinator forwards the request toward its coordinator.
//
// Front, when non-zero, is the joiner's durable delivery front — the
// highest global its on-disk log recovered. The coordinator answers
// with a resume grant (RingUpdate.Resume) when the gap up to its own
// front still fits inside the ring's retained repair windows, letting
// the member continue its log instead of restarting at the baseline.
type JoinReq struct {
	Group seq.GroupID
	Node  seq.NodeID
	Addr  string
	Front seq.GlobalSeq
}

func (*JoinReq) Kind() Kind      { return KindJoinReq }
func (j *JoinReq) WireSize() int { return wireSize(j) }

// LeaveReq announces Node's graceful departure to the coordinator.
type LeaveReq struct {
	Group seq.GroupID
	Node  seq.NodeID
}

func (*LeaveReq) Kind() Kind      { return KindLeaveReq }
func (l *LeaveReq) WireSize() int { return wireSize(l) }

// RingUpdate is one versioned top-ring membership epoch: the complete
// member list (with transport addresses) computed by coordinator Coord.
// Members apply an update iff Epoch exceeds their current epoch and
// acknowledge it implicitly through the Epoch field of their heartbeats.
// Baseline is the coordinator's delivery front when the epoch was
// created; a joiner force-releases its virgin MQ to it so delivery
// starts at the stream's current position instead of global sequence 1.
//
// Merge marks a partition-heal epoch that re-admits members holding
// pre-partition state: every applier arms the paper's Multiple-Token
// filter atomically with the epoch, and MergeTokenEpoch (when non-zero)
// names the surviving token's epoch so a re-admitted member discards a
// parked token from before the split instead of re-injecting it.
type RingUpdate struct {
	Group           seq.GroupID
	Epoch           uint64
	Coord           seq.NodeID
	Baseline        seq.GlobalSeq
	Members         []MemberAddr
	Merge           bool
	MergeTokenEpoch uint64
	// Resume grants durable-log resumption: each entry names a member
	// this epoch admits at its own recovered front instead of Baseline.
	// The member delivers from Front+1 onward and Nack-repairs the gap
	// (Front, Baseline] from its peers' retained windows. A (re)joiner
	// absent from Resume starts fresh at Baseline.
	Resume []ResumeEntry
}

// ResumeEntry pairs a resuming member with the durable front the
// coordinator granted it.
type ResumeEntry struct {
	Node  seq.NodeID
	Front seq.GlobalSeq
}

func (*RingUpdate) Kind() Kind      { return KindRingUpdate }
func (r *RingUpdate) WireSize() int { return wireSize(r) }

// TimeSync is the clock-offset probe: a ping carries the sender's wall
// clock T1 (unix nanoseconds); the pong echoes T1 and adds the
// responder's wall clock T2. The prober combines them with its receive
// time T4 into the classic offset estimate T2 − (T1+T4)/2.
type TimeSync struct {
	Phase uint8 // 0 = ping, 1 = pong
	T1    int64
	T2    int64
}

func (*TimeSync) Kind() Kind      { return KindTimeSync }
func (t *TimeSync) WireSize() int { return wireSize(t) }

// QuorumVote is one leg of the wire membership plane's epoch quorum.
// With Granted false it is the proposer's request: Proposer, whose last
// committed epoch is Base, asks Voter to grant it epoch number Epoch
// (> Base; numbers may skip when an earlier proposal died ungranted).
// With Granted true it is the voter's reply. A voter grants a given
// epoch number to at most one proposer, and only to a proposer whose
// Base matches its own committed epoch — a proposer that missed a
// commit is caught up with the current RingUpdate instead of granted —
// so two sides of a partition can never both commit the same epoch:
// one of them fails to reach a majority of the previous epoch's
// membership and parks lame instead.
type QuorumVote struct {
	Group    seq.GroupID
	Epoch    uint64
	Base     uint64
	Proposer seq.NodeID
	Voter    seq.NodeID
	Granted  bool
}

func (*QuorumVote) Kind() Kind      { return KindQuorumVote }
func (q *QuorumVote) WireSize() int { return wireSize(q) }

// RingSummary is the quorum side's merge offer across a healed
// partition: when a probe heartbeat from a member the ring evicted while
// partitioned reaches the coordinator, it answers with its epoch,
// delivery front, order-hash fingerprint, and the surviving token's
// (epoch, hops) stamp. The minority member compares the summary against
// its own state and answers with a MergeReq to be spliced back in.
type RingSummary struct {
	Group      seq.GroupID
	From       seq.NodeID
	Epoch      uint64
	Front      seq.GlobalSeq
	OrderHash  uint64
	TokenEpoch uint64
	TokenHops  uint64
}

func (*RingSummary) Kind() Kind      { return KindRingSummary }
func (r *RingSummary) WireSize() int { return wireSize(r) }

// MergeReq is the minority member's answer to a RingSummary: its own
// epoch/front/hash/token summary plus its transport address, asking the
// quorum coordinator to splice it back into the ring at the next epoch.
type MergeReq struct {
	Group      seq.GroupID
	Node       seq.NodeID
	Addr       string
	Epoch      uint64
	Front      seq.GlobalSeq
	OrderHash  uint64
	TokenEpoch uint64
	TokenHops  uint64
}

func (*MergeReq) Kind() Kind      { return KindMergeReq }
func (m *MergeReq) WireSize() int { return wireSize(m) }

// Done tells a peer that its sender has delivered everything it expects
// in one group. Exiting a ring is safe only once every member is done:
// gap repair (Nack) is pull-based, so a converged member may still be the
// only reachable holder of a body a straggler is missing. Drained says
// more: the sender has also heard Done from every live peer and passed
// its bounded drain, so it needs nothing further from anyone, and a
// member that has heard Drained from every peer may exit at once. The
// frame section that carries it names the group, and the datagram its
// sender.
type Done struct {
	Drained bool
}

func (*Done) Kind() Kind      { return KindDone }
func (d *Done) WireSize() int { return wireSize(d) }
