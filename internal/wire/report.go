package wire

import "repro/internal/metrics"

// GroupReport is one hosted group's slice of the daemon's status report
// (report schema v2): the delivery-order hash every member of that group
// must agree on, plus the group's delivery/latency/control-plane
// metrics.
type GroupReport struct {
	Group     uint32 `json:"group"`
	Members   int    `json:"members"`
	Leader    uint32 `json:"leader"`
	Converged bool   `json:"converged"`
	Delivered uint64 `json:"delivered"`
	Expected  uint64 `json:"expected"`

	// Epoch is the group's final membership epoch (1 = the bootstrap
	// ring; static runs stay at 0). Left marks a graceful leave (SIGTERM
	// or eviction): the member drained and exited the group mid-run by
	// design.
	Epoch uint64 `json:"epoch,omitempty"`
	Left  bool   `json:"left,omitempty"`

	// Partition life cycle: Lame is the final lame-ring state (true
	// only if the member ended parked in a minority fragment);
	// LameEntries/LameMS count park episodes and total parked time;
	// LameDeliveries MUST stay 0 (a parked member delivers nothing).
	// Merges counts merge epochs this member coordinated; HealUS is the
	// probe-to-readmission latency of the last completed heal, in
	// microseconds (on loopback the whole handshake is sub-millisecond).
	Lame           bool   `json:"lame,omitempty"`
	LameEntries    uint64 `json:"lame_entries,omitempty"`
	LameMS         int64  `json:"lame_ms,omitempty"`
	LameDeliveries uint64 `json:"lame_deliveries,omitempty"`
	Merges         uint64 `json:"merges,omitempty"`
	HealUS         int64  `json:"heal_us,omitempty"`

	// OrderHash fingerprints the group's delivered total order
	// (identical on every member iff they delivered the same stream in
	// the same order); OrderErr reports any online total-order
	// violation. FirstGlobal/LastGlobal delimit the delivered
	// global-sequence range (a late joiner delivers a suffix:
	// FirstGlobal = baseline+1).
	OrderHash   string `json:"order_hash"`
	OrderErr    string `json:"order_err,omitempty"`
	FirstGlobal uint64 `json:"first_global,omitempty"`
	LastGlobal  uint64 `json:"last_global,omitempty"`

	ThroughputPS  float64 `json:"throughput_per_s"`
	LatencyMeanMS float64 `json:"latency_mean_ms"` // submit→local delivery, own messages
	LatencyP99MS  float64 `json:"latency_p99_ms"`

	// Cross-process send→deliver latency over foreign-sourced messages,
	// computed from payload-embedded send timestamps corrected by the
	// spawn-time clock-offset estimate. MaxGapMS is the longest
	// inter-delivery stall observed (failover cost shows up here).
	CrossLatMeanMS float64 `json:"cross_lat_mean_ms,omitempty"`
	CrossLatP99MS  float64 `json:"cross_lat_p99_ms,omitempty"`
	CrossLatN      int     `json:"cross_lat_n,omitempty"`
	MaxGapMS       float64 `json:"max_gap_ms,omitempty"`

	// Durable delivery plane (members running with a data_dir).
	// ResumedAt is the durable front this member resumed at after a
	// restart (0 = fresh join or no persistence): deliveries continued
	// at ResumedAt+1 with the handshake gap backfilled from peers.
	// DLQEntries counts the really-lost tombstones in the member's
	// dead-letter queue at report time. DiscardedRange is the
	// global-sequence range abandoned when the member's front fell
	// below the resume horizon and it rejoined fresh at the quorum
	// baseline (absent when nothing was discarded).
	// StoreErr is the first durable-plane write/sync failure, if any —
	// the run's delivery results still stand, but the disk state is
	// suspect and a later resume from it may fall back to a fresh join.
	ResumedAt      uint64    `json:"resumed_at,omitempty"`
	DLQEntries     int       `json:"dlq_entries,omitempty"`
	DiscardedRange *SeqRange `json:"discarded_range,omitempty"`
	StoreErr       string    `json:"store_err,omitempty"`

	// Control is the group's outbound control/data byte split (the
	// simulator's gated metric, now measured over a real socket).
	Control metrics.ControlReport `json:"control"`
}

// SeqRange is an inclusive global-sequence interval [Lo, Hi].
type SeqRange struct {
	Lo uint64 `json:"lo"`
	Hi uint64 `json:"hi"`
}

// Resumed reports whether this member recovered a durable front and
// re-entered the ring through the resume path rather than a fresh join.
func (g *GroupReport) Resumed() bool { return g.ResumedAt > 0 }

// Discarded returns the global-sequence range this member dropped on a
// below-horizon fresh rejoin, or ok=false if nothing was discarded.
func (g *GroupReport) Discarded() (lo, hi uint64, ok bool) {
	if g.DiscardedRange == nil || g.DiscardedRange.Lo > g.DiscardedRange.Hi {
		return 0, 0, false
	}
	return g.DiscardedRange.Lo, g.DiscardedRange.Hi, true
}

// Report is the daemon's stdout status report (schema v2): one entry per
// hosted group plus the daemon-level aggregate and the shared-transport
// stats, reported once. One JSON object per line.
type Report struct {
	Node uint32 `json:"node"`

	// Groups holds one report per hosted group, in config order.
	Groups []GroupReport `json:"groups"`

	// Aggregate: Converged is the conjunction over groups, Delivered
	// and ThroughputPS the sums — the daemon-level scaling numbers.
	Converged    bool    `json:"converged"`
	Delivered    uint64  `json:"delivered"`
	ThroughputPS float64 `json:"throughput_per_s"`

	WallMS int64 `json:"wall_ms"`

	// Transport counts the shared socket's datagrams, bytes, reorders,
	// per-group RX/TX split, and injected faults — once per daemon, not
	// per group. SendErrs counts outbox flushes the transport rejected.
	Transport Stats  `json:"transport"`
	SendErrs  uint64 `json:"send_errs,omitempty"`

	// Spans counts trace spans recorded by the lifecycle tracer (0 when
	// trace_sample_mod is unset).
	Spans uint64 `json:"spans,omitempty"`
}

// ByGroup returns the report entry for group id, or nil.
func (r *Report) ByGroup(id uint32) *GroupReport {
	for i := range r.Groups {
		if r.Groups[i].Group == id {
			return &r.Groups[i]
		}
	}
	return nil
}

// Single returns the report entry of a single-group daemon. It panics
// if the daemon hosts more than one group (callers wanting a specific
// one should use ByGroup) and returns an empty zero-group entry if the
// run died before producing any.
func (r *Report) Single() *GroupReport {
	if len(r.Groups) > 1 {
		panic("wire: Report.Single on a multi-group daemon")
	}
	if len(r.Groups) == 0 {
		return &GroupReport{}
	}
	return &r.Groups[0]
}
