package wire

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// This file assembles the daemon's live telemetry plane: one registry
// and one event ring per Node, with per-group instrument bundles wired
// into the core engine, the membership plane, and the durable store.
// The registry exists whether or not an admin listener is configured —
// the exit report derives its counters from it (so report and /metrics
// can never disagree), and attaching instruments is cheap. Only the
// simulator path runs without one, through the nil-safety of every
// instrument.

// eventRingCap bounds the per-daemon event ring. Protocol transitions
// are slow-path (epochs, parks, tombstones), so a thousand entries is
// hours of history for a healthy ring and still a useful window during
// a fault storm.
const eventRingCap = 1024

// spanRingCap bounds the per-daemon trace-span ring. At the default
// sampling rate a sampled message costs under ten lifecycle spans per
// member, so this window holds the full trace of a thousand-message
// harness run with room for fault-storm annotations.
const spanRingCap = 16384

// nodeTelemetry is the daemon-wide observability state.
type nodeTelemetry struct {
	reg    *telemetry.Registry
	events *telemetry.Ring
	node   uint32

	// clock is the single wall source shared by the event ring and the
	// tracer, so events and spans from this process interleave honestly.
	clock  *telemetry.Clock
	tracer *telemetry.Tracer

	outboxFlushBytes *telemetry.Histogram
}

func newNodeTelemetry(node uint32, traceMod int) *nodeTelemetry {
	nt := &nodeTelemetry{
		reg:    telemetry.NewRegistry(),
		events: telemetry.NewRing(eventRingCap),
		node:   node,
		clock:  telemetry.NewClock(),
	}
	nt.events.SetClock(nt.clock)
	nt.tracer = telemetry.NewTracer(node, traceMod, spanRingCap, nt.clock)
	// Stage histograms are registered up front — even with sampling off
	// — so /metrics always exposes the family the manifest pins.
	for _, s := range telemetry.LifecycleStages() {
		nt.tracer.SetStageHistogram(s, nt.reg.Histogram("ringnet_trace_stage_seconds",
			"Latency from the previous traced lifecycle stage to this one (sampled keys).",
			telemetry.LatencyBuckets(), "stage", s.String()))
	}
	nt.outboxFlushBytes = nt.reg.Histogram("ringnet_outbox_flush_bytes",
		"Bytes drained per shared-outbox flush (batch occupancy).", telemetry.SizeBuckets())
	return nt
}

// groupTelemetry is one hosted group's instrument bundle. All
// instruments live in the node registry under a group label.
type groupTelemetry struct {
	gid    uint32
	events *telemetry.Ring
	node   uint32
	tracer *telemetry.Tracer

	delivered *telemetry.Counter
	front     *telemetry.Gauge
	crossLat  *telemetry.Histogram

	lame          *telemetry.Gauge
	lameEntries   *telemetry.Counter
	suspects      *telemetry.Gauge
	epoch         *telemetry.Gauge
	epochsApplied *telemetry.Counter
	quorumRetries *telemetry.Counter
	evictions     *telemetry.Counter
	merges        *telemetry.Counter
	tokenSignals  *telemetry.Counter

	dlqDepth *telemetry.Gauge
	storeTel store.Telemetry
}

// group builds (idempotently) the instrument bundle for group gid.
func (nt *nodeTelemetry) group(gid uint32) *groupTelemetry {
	g := fmt.Sprintf("%d", gid)
	reg := nt.reg
	gt := &groupTelemetry{
		gid:    gid,
		events: nt.events,
		node:   nt.node,
		tracer: nt.tracer,

		delivered: reg.Counter("ringnet_delivered_total",
			"Message bodies delivered to the application, in total order.", "group", g),
		front: reg.Gauge("ringnet_delivery_front",
			"Contiguous delivery front (global sequence; advances over really-lost gaps).", "group", g),
		crossLat: reg.Histogram("ringnet_cross_latency_seconds",
			"Cross-process send-to-deliver latency (offset-corrected).",
			telemetry.LatencyBuckets(), "group", g),

		lame: reg.Gauge("ringnet_lame",
			"1 while parked read-only in a minority (lame) ring.", "group", g),
		lameEntries: reg.Counter("ringnet_lame_entries_total",
			"Times this member parked in the lame ring.", "group", g),
		suspects: reg.Gauge("ringnet_suspects",
			"Members currently suspected by the failure detector.", "group", g),
		epoch: reg.Gauge("ringnet_epoch",
			"Current membership epoch.", "group", g),
		epochsApplied: reg.Counter("ringnet_epochs_applied_total",
			"Membership epochs applied (beyond the bootstrap epoch).", "group", g),
		quorumRetries: reg.Counter("ringnet_quorum_retries_total",
			"Epoch proposals abandoned or retried at a higher number.", "group", g),
		evictions: reg.Counter("ringnet_evictions_total",
			"Members this node observed leaving the ring (evictions and leaves).", "group", g),
		merges: reg.Counter("ringnet_merges_total",
			"Partition-heal merge epochs this member coordinated.", "group", g),
		tokenSignals: reg.Counter("ringnet_token_signals_total",
			"Token-Loss signals raised by the watchdog.", "group", g),

		dlqDepth: reg.Gauge("ringnet_dlq_depth",
			"Dead-letter-queue tombstones on disk.", "group", g),
		storeTel: store.Telemetry{
			AppendSeconds: reg.Histogram("ringnet_store_append_seconds",
				"Durable-log append latency.", telemetry.LatencyBuckets(), "group", g),
			SyncSeconds: reg.Histogram("ringnet_store_sync_seconds",
				"Durable-log flush+fsync latency.", telemetry.LatencyBuckets(), "group", g),
			SegmentRolls: reg.Counter("ringnet_store_segment_rolls_total",
				"Durable-log segment rolls.", "group", g),
		},
	}
	return gt
}

// coreTel builds the engine instrumentation bundle for this group.
func (gt *groupTelemetry) coreTel(reg *telemetry.Registry) core.Telemetry {
	g := fmt.Sprintf("%d", gt.gid)
	t := core.Telemetry{
		Front: gt.front,
		TokenHops: reg.Counter("ringnet_token_hops_total",
			"Ordering-token forwards to the ring successor.", "group", g),
		TokenRegens: reg.Counter("ringnet_token_regens_total",
			"Token-Regeneration traversals started.", "group", g),
		TokenDestroys: reg.Counter("ringnet_token_destroys_total",
			"Token copies swallowed (duplicates, parks, filter windows).", "group", g),
		NacksRanged: reg.Counter("ringnet_nacks_total",
			"Repair Nacks by escalation tier.", "group", g, "tier", "ranged"),
		NacksBroadcast: reg.Counter("ringnet_nacks_total",
			"Repair Nacks by escalation tier.", "group", g, "tier", "broadcast"),
		NacksServed: reg.Counter("ringnet_nacks_total",
			"Repair Nacks by escalation tier.", "group", g, "tier", "served"),
		ReallyLost: reg.Counter("ringnet_really_lost_total",
			"Slots condemned by the really-lost rule.", "group", g),
		TokenHopBytes: reg.Counter("ringnet_token_hop_bytes_total",
			"Encoded bytes of ordering-token hops (first transmissions).", "group", g),
		HopTimeoutRetransmits: reg.Counter("ringnet_hop_retransmits_total",
			"Reliable-hop retransmissions by cause (timeout: the timer fired; gap: a receiver reported a hole).", "group", g, "cause", "timeout"),
		HopGapRetransmits: reg.Counter("ringnet_hop_retransmits_total",
			"Reliable-hop retransmissions by cause (timeout: the timer fired; gap: a receiver reported a hole).", "group", g, "cause", "gap"),
		TokenRTO: &telemetry.Gauge{},
		Events:   gt.events,
		Node:     gt.node,
		Group:    gt.gid,
		Trace:    gt.tracer,
	}
	for _, r := range core.SenderResyncs {
		t.TokenFullSends[r] = reg.Counter("ringnet_token_full_sends_total",
			"Token transmissions that carried the whole table instead of a delta, by reason (retransmit: a courier resend after the first, which repeats the delta).", "group", g, "reason", r.String())
	}
	rto := t.TokenRTO
	reg.GaugeFunc("ringnet_token_rto_seconds",
		"The token courier's retransmission timeout, measured from its TokenAck round trips.",
		func() float64 { return float64(rto.Value()) / float64(sim.Second) }, "group", g)
	for _, r := range core.ReceiverResyncs {
		t.TokenDeltaRefused[r] = reg.Counter("ringnet_token_delta_refused_total",
			"Token deltas this member could not rebuild and dropped, by reason.", "group", g, "reason", r.String())
	}
	return t
}

// emit records one group-scoped protocol event.
func (gt *groupTelemetry) emit(typ string, value uint64, detail string) {
	if gt == nil {
		return
	}
	gt.events.Emit(telemetry.Event{Node: gt.node, Group: gt.gid, Type: typ, Value: value, Detail: detail})
}

// writeDerivedMetrics renders the scrape-time families computed from the
// shared transport and outbox — per-peer and per-group TX/RX, reorder
// and drop-matrix counters, and clock-sync RTT/offset estimates. These
// are snapshots of mutex-guarded state, so they are rendered per scrape
// instead of being double-counted into registry instruments.
func writeDerivedMetrics(w io.Writer, nt *nodeTelemetry, tr *Transport, ob *SharedOutbox) error {
	st := tr.Stats()

	peerIDs := make([]seq.NodeID, 0, len(st.Peers))
	for id := range st.Peers {
		peerIDs = append(peerIDs, id)
	}
	sort.Slice(peerIDs, func(i, j int) bool { return peerIDs[i] < peerIDs[j] })

	peerFam := func(name, help string, get func(PeerStats) uint64) error {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name); err != nil {
			return err
		}
		for _, id := range peerIDs {
			if _, err := fmt.Fprintf(w, "%s{peer=\"%d\"} %d\n", name, uint32(id), get(st.Peers[id])); err != nil {
				return err
			}
		}
		return nil
	}
	if err := peerFam("ringnet_peer_tx_bytes_total", "Datagram bytes sent to a peer.",
		func(p PeerStats) uint64 { return p.SentBytes }); err != nil {
		return err
	}
	if err := peerFam("ringnet_peer_rx_bytes_total", "Datagram bytes received from a peer.",
		func(p PeerStats) uint64 { return p.RecvBytes }); err != nil {
		return err
	}
	if err := peerFam("ringnet_peer_tx_datagrams_total", "Datagrams sent to a peer.",
		func(p PeerStats) uint64 { return p.SentDatagrams }); err != nil {
		return err
	}
	if err := peerFam("ringnet_peer_rx_datagrams_total", "Datagrams received from a peer.",
		func(p PeerStats) uint64 { return p.RecvDatagrams }); err != nil {
		return err
	}
	if err := peerFam("ringnet_peer_out_of_order_total", "Reordered or duplicated datagrams from a peer.",
		func(p PeerStats) uint64 { return p.OutOfOrder }); err != nil {
		return err
	}
	if err := peerFam("ringnet_peer_gaps_total", "Sequence gaps seen from a peer (upper bound on in-flight loss).",
		func(p PeerStats) uint64 { return p.GapsSeen }); err != nil {
		return err
	}

	// Clock-sync estimates double as a heartbeat-path RTT measurement.
	rtts := tr.PeerOffsets()
	rttIDs := make([]seq.NodeID, 0, len(rtts))
	for id := range rtts {
		rttIDs = append(rttIDs, id)
	}
	sort.Slice(rttIDs, func(i, j int) bool { return rttIDs[i] < rttIDs[j] })
	if _, err := fmt.Fprintf(w, "# HELP ringnet_peer_rtt_seconds Best clock-sync round-trip estimate per peer.\n# TYPE ringnet_peer_rtt_seconds gauge\n"); err != nil {
		return err
	}
	for _, id := range rttIDs {
		if _, err := fmt.Fprintf(w, "ringnet_peer_rtt_seconds{peer=\"%d\"} %g\n", uint32(id), rtts[id].RTT.Seconds()); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# HELP ringnet_peer_clock_offset_seconds Estimated clock offset per peer (remote minus local).\n# TYPE ringnet_peer_clock_offset_seconds gauge\n"); err != nil {
		return err
	}
	for _, id := range rttIDs {
		if _, err := fmt.Fprintf(w, "ringnet_peer_clock_offset_seconds{peer=\"%d\"} %g\n", uint32(id), rtts[id].Offset.Seconds()); err != nil {
			return err
		}
	}

	gids := make([]uint32, 0, len(st.Groups))
	for gid := range st.Groups {
		gids = append(gids, gid)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	groupFam := func(name, help string, get func(GroupStats) uint64) error {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name); err != nil {
			return err
		}
		for _, gid := range gids {
			if _, err := fmt.Fprintf(w, "%s{group=\"%d\"} %d\n", name, gid, get(st.Groups[gid])); err != nil {
				return err
			}
		}
		return nil
	}
	if err := groupFam("ringnet_group_tx_bytes_total", "Section bytes sent per group.",
		func(g GroupStats) uint64 { return g.SentBytes }); err != nil {
		return err
	}
	if err := groupFam("ringnet_group_rx_bytes_total", "Section bytes received per group.",
		func(g GroupStats) uint64 { return g.RecvBytes }); err != nil {
		return err
	}
	if err := groupFam("ringnet_group_tx_msgs_total", "Messages sent per group.",
		func(g GroupStats) uint64 { return g.SentMsgs }); err != nil {
		return err
	}
	if err := groupFam("ringnet_group_rx_msgs_total", "Messages received per group.",
		func(g GroupStats) uint64 { return g.RecvMsgs }); err != nil {
		return err
	}

	scalar := func(name, help string, v uint64) error {
		_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
		return err
	}
	if err := scalar("ringnet_drop_matrix_total", "Inbound datagrams dropped by the partition drop matrix.", st.MatrixDrops); err != nil {
		return err
	}
	if err := scalar("ringnet_recv_unknown_total", "Sections from senders the target group does not know.", st.RecvUnknown); err != nil {
		return err
	}
	if err := scalar("ringnet_decode_errors_total", "Datagrams that failed frame decoding.", st.DecodeErrors); err != nil {
		return err
	}
	if err := scalar("ringnet_unknown_group_drops_total", "Sections for unregistered groups.", st.UnknownGroupDrops); err != nil {
		return err
	}
	if err := scalar("ringnet_send_errs_total", "Outbox flushes the transport rejected.", ob.SendErrs()); err != nil {
		return err
	}
	// Ring-overflow accounting: a scraper that sees either overwritten
	// counter grow between polls knows its /events or /trace view has
	// gaps, without diffing Seq by hand.
	if err := scalar("ringnet_events_overwritten_total", "Events lost off the bounded event ring (emitted minus retained).", nt.events.Overwritten()); err != nil {
		return err
	}
	if err := scalar("ringnet_trace_spans_total", "Trace spans recorded by the per-message lifecycle tracer.", nt.tracer.Emitted()); err != nil {
		return err
	}
	return scalar("ringnet_trace_spans_overwritten_total", "Trace spans lost off the bounded span ring.", nt.tracer.Overwritten())
}

// PeerOffset is one peer's best clock-sync estimate.
type PeerOffset struct {
	Offset time.Duration
	RTT    time.Duration
}
