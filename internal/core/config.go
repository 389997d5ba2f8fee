// Package core implements the RingNet reliable totally-ordered group
// multicast protocol (paper §4): the Message-Ordering, Order-Assignment,
// Message-Forwarding, and Message-Delivering algorithms, plus
// Token-Regeneration and Multiple-Token resolution, running over the
// topology and transport packages and whatever Network the engine is given
// (the simulator's netsim, or the wire plane's outbox substrate).
//
// Every network entity (NE) is an independent state machine holding only
// its local neighbor view; the engine registers NEs on its Network and
// injects workload. Mobile hosts (MHs) are lightweight receivers beneath
// the bottom APs.
package core

import (
	"repro/internal/sim"
	"repro/internal/transport"
)

// Config tunes one protocol instance.
type Config struct {
	// Tau is the Order-Assignment timer cycle τ (paper §4.2.1): how
	// often each top-ring node matches WQ messages against its stored
	// ordering tokens. Engine.Start arms it on every top-ring node; an
	// engine started with StartLocal (the wire daemon) arms no τ timer,
	// and its host runs the pass on its own clock instead.
	Tau sim.Time
	// TokenHold is how long a holder keeps the token before forwarding
	// (processing time; the paper treats it as negligible).
	TokenHold sim.Time
	// TokenIdleBackoff, when non-zero, lets an idle ring slow down: every
	// token rotation that arrives with nothing newly assigned doubles the
	// holding time, up to this cap, and any advance of the global
	// sequence snaps it back to TokenHold. Real deployments hosting many
	// federated rings need quiet groups to stop burning CPU and sockets
	// on full-rate circulation; keep it well under the membership
	// plane's token watchdog. 0 disables (the simulator default —
	// constant-rate circulation, the paper's model).
	TokenIdleBackoff sim.Time
	// MQSize is the MaxNo of every NE's message queue, in slots: the
	// cap the queue's ring grows to as its window needs, not an
	// up-front allocation.
	MQSize int
	// MHWindow is the reassembly window of a mobile host.
	MHWindow int
	// RetainExtra keeps this many delivered slots below the WT minimum
	// for late retransmissions to handed-off MHs.
	RetainExtra int
	// Hop is the wired per-hop retransmission configuration.
	Hop transport.Config
	// Wireless is the AP→MH per-hop retransmission configuration.
	Wireless transport.Config
	// AckDelay coalesces acknowledgements: instead of one Ack (or MH
	// Progress) per received message, a receiver registers the pending
	// cumulative acknowledgement and flushes it after at most AckDelay —
	// or immediately on gap detection, on a duplicate arrival (the
	// sender is already retransmitting, so its ack was lost), or under
	// MQ-window/RetainExtra pressure, keeping Nack latency and garbage
	// collection behavior unchanged. It must be smaller than the hop RTO
	// (default ¼·RTO) or every coalesced message would be retransmitted
	// once before its ack leaves. Zero restores the seed's
	// ack-per-message behavior (useful as an ablation).
	AckDelay sim.Time
	// TokenLossThreshold: a node considers Message-Ordering to be
	// "running well" (§4.2.1) if it saw token activity within this
	// window; Token-Loss signals inside the window are ignored.
	TokenLossThreshold sim.Time
	// FilterWindow is how long Multiple-Token filtering stays active
	// after a Multiple-Token signal.
	FilterWindow sim.Time
	// CompactAbove/CompactKeep bound the circulating token's table. When
	// it exceeds CompactAbove entries, the token's WTSNP drops below
	// (NextGlobalSeq − CompactKeep) — or, when the global sequence has
	// not yet passed CompactKeep, down to the newest ¾·CompactAbove
	// entries, capping the token's wire size from the first rotation.
	// The size cap never cuts below two top-ring rotations' worth of
	// entries (2 × ring size), so with CompactAbove smaller than the ring
	// the table is bounded by the rotation floor, not CompactAbove itself
	// — entries must survive one circulation for every node to absorb
	// them. A node's cumulative table is not sized by these knobs: it
	// follows the delivery front, keeping only assignments some reader
	// can still ask about (compactAssign), so it holds what is in flight.
	// Zero CompactAbove disables compaction of both tables.
	CompactAbove int
	CompactKeep  uint64
	// ReserveFor is how long a multicast path reservation keeps a
	// memberless AP attached to the delivery tree (paper §3 smooth
	// handoff).
	ReserveFor sim.Time
	// Linger is how long an AP stays attached after its last member
	// departs (hysteresis against ping-pong handoffs).
	Linger sim.Time
	// NackTimeout is how long a top-ring node waits on a missing
	// message body whose global assignment is already known before
	// asking its previous node to repair the gap from its MQ.
	NackTimeout sim.Time
	// NackWindow is how many consecutive global sequence numbers one
	// Nack requests, starting at the first known-assigned missing body.
	// The responder serves whatever subset it retains, so over-asking is
	// safe. 1 reproduces the seed's one-body-per-timeout repair; real
	// deployments use a larger window so a member that fell behind a
	// reconfiguration (its WQ feed was retargeted around it, or it just
	// joined) catches up in a few round trips instead of one body per
	// NackTimeout.
	NackWindow int
	// NackBroadcastAfter widens repair after this many fruitless Nack
	// rounds on one source: instead of asking only the ring predecessor,
	// the stalled node asks every top-ring member (any one of them may
	// retain the body after a reconfiguration re-routed the streams).
	// 0 disables (seed behavior: predecessor only).
	NackBroadcastAfter int
	// NackGiveUpRounds applies the really-lost rule to a gap whose
	// source is no longer in the hierarchy (crashed and evicted): after
	// this many fruitless Nack rounds — including broadcast rounds that
	// every live member failed to answer — the body provably died with
	// its source, so the slot is marked lost and the delivery front
	// moves on, identically at every stalled member. A message a crashed
	// member submitted and got assigned, whose body datagram was lost
	// before anyone stored it, would otherwise stall the whole ring
	// forever. 0 disables (never give up).
	NackGiveUpRounds int
	// OpportunisticAssign additionally runs Order-Assignment the moment
	// a token arrives or its forwarding is acknowledged, instead of
	// waiting for the next τ tick. The paper specifies only the
	// periodic check; this optimization decouples mean latency from τ
	// (experiment E7 ablates it).
	OpportunisticAssign bool
}

// DefaultConfig is a reasonable wired-Internet configuration.
func DefaultConfig() Config {
	return Config{
		Tau:                 5 * sim.Millisecond,
		TokenHold:           200 * sim.Microsecond,
		MQSize:              1 << 14,
		MHWindow:            1 << 10,
		RetainExtra:         64,
		Hop:                 transport.DefaultConfig,
		Wireless:            transport.WirelessConfig,
		AckDelay:            transport.DefaultConfig.RTO / 4,
		TokenLossThreshold:  500 * sim.Millisecond,
		FilterWindow:        1 * sim.Second,
		CompactAbove:        4096,
		CompactKeep:         1 << 16,
		ReserveFor:          2 * sim.Second,
		Linger:              500 * sim.Millisecond,
		NackTimeout:         50 * sim.Millisecond,
		NackWindow:          1,
		OpportunisticAssign: true,
	}
}
