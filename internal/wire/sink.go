package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/store"
)

// deliverySink is one hosted group's delivery sink — the seam between
// the protocol core and whatever consumes the total order. It is the
// only place a delivery is accounted: the order fingerprint, the
// strictly-increasing-global check behind order_err, the delivered
// range and rate, latency, the durable log and dead-letter queue, the
// delivery trace, and the one ringnet_delivered_total counter every
// report reads back.
//
// Everything here runs on the daemon's driver goroutine (no locks), and
// everything it retains is bounded — the paper's Theorem 5.1 bounds the
// protocol's own buffers; a daemon whose accounting grew with every
// message would undo that. The two latency samples are fixed-memory
// histograms (a few KB each, 129 KB at most), and the own-latency FIFO
// is capped at ownPendingMax entries.
type deliverySink struct {
	gid   uint32
	self  seq.NodeID
	sched *sim.Scheduler // the daemon's clock
	tel   *groupTelemetry

	// What the sink reads from its surroundings; nil means none (static
	// membership, no clock-sync estimates).
	lame     func() bool                            // parked read-only in a minority ring
	offsetOf func(seq.NodeID) (time.Duration, bool) // clock offset of a peer (remote − local)

	oh       *metrics.OrderHash
	orderErr error // first total-order violation

	firstG, lastG   seq.GlobalSeq // firstG == 0: nothing delivered yet
	firstAt, lastAt sim.Time
	maxGap          sim.Time
	lameDeliveries  uint64

	// own holds ⟨local, submit time⟩ of this member's messages still on
	// their way round the ring, oldest first from ownHead. Own messages
	// deliver in local order, so a delivery pops from the front.
	own        []ownSend
	ownHead    int
	ownDropped uint64
	lat        metrics.Sample // submit→local delivery, own messages
	crossLat   metrics.Sample // offset-corrected send→deliver, foreign messages

	trace     *bufio.Writer
	traceFile *os.File

	// Durable delivery plane (nil without a data_dir).
	dlog     *store.FileLog
	dlq      *store.DLQ
	storeErr error
}

type ownSend struct {
	local seq.LocalSeq
	at    sim.Time
}

// ownPendingMax caps the own-latency FIFO at 65,536 entries (1 MB; the
// backing array peaks at twice that before it slides). In-flight own
// messages normally number a ring rotation's worth; only a member that
// keeps sourcing into a stalled ring gets near the cap, and then the
// oldest entry is dropped and counted — that message simply contributes
// no latency sample.
const ownPendingMax = 1 << 16

// newDeliverySink opens the group's delivery artifacts — the trace file
// and, with a data dir, the durable log and dead-letter queue — and
// seeds the order fingerprint and the trace from the recovered log:
// after a crash-restart the member's final hash and trace must cover the
// full stream it ever delivered, not just this incarnation, or
// cross-member convergence checks would reject a correct resume.
func newDeliverySink(gid uint32, self seq.NodeID, sched *sim.Scheduler, tel *groupTelemetry, tracePath, dataDir string) (_ *deliverySink, err error) {
	s := &deliverySink{gid: gid, self: self, sched: sched, tel: tel, oh: metrics.NewOrderHash()}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if tracePath != "" {
		if s.traceFile, err = os.Create(tracePath); err != nil {
			return nil, err
		}
		s.trace = bufio.NewWriter(s.traceFile)
	}
	if dataDir == "" {
		return s, nil
	}
	// Torn tails are truncated on open.
	if s.dlog, err = store.OpenFileLog(dataDir, store.FileLogOptions{}); err != nil {
		return nil, err
	}
	s.dlog.SetTelemetry(tel.storeTel)
	if s.dlq, err = store.OpenDLQ(dataDir); err != nil {
		return nil, fmt.Errorf("wire: group %d dead-letter queue: %w", gid, err)
	}
	s.dlq.SetDepthGauge(tel.dlqDepth)
	if err := s.dlog.Replay(func(r store.Record) error {
		s.note(r.Global, r.Source, r.Local)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("wire: group %d log replay: %w", gid, err)
	}
	return s, nil
}

// note folds one position of the total order into the fingerprint and
// the trace.
func (s *deliverySink) note(g seq.GlobalSeq, src seq.NodeID, local seq.LocalSeq) {
	s.oh.Note(g, src, local)
	if s.trace != nil {
		fmt.Fprintf(s.trace, "%d %d %d\n", g, uint32(src), local)
	}
}

// submitted records that this member just sourced local.
func (s *deliverySink) submitted(local seq.LocalSeq) {
	if len(s.own)-s.ownHead >= ownPendingMax {
		s.popOwn()
		s.ownDropped++
	}
	s.own = append(s.own, ownSend{local, s.sched.Now()})
}

// popOwn drops the FIFO's oldest entry, sliding the rest down once the
// consumed prefix is half the array (amortised O(1)).
func (s *deliverySink) popOwn() {
	s.ownHead++
	if 2*s.ownHead >= len(s.own) {
		s.own = s.own[:copy(s.own, s.own[s.ownHead:])]
		s.ownHead = 0
	}
}

// ownDelivered pops the FIFO up to local, sampling its latency if it is
// still there; entries below it were really lost and never deliver.
func (s *deliverySink) ownDelivered(local seq.LocalSeq, now sim.Time) {
	for s.ownHead < len(s.own) && s.own[s.ownHead].local <= local {
		if e := s.own[s.ownHead]; e.local == local {
			s.lat.AddTime(now - e.at)
		}
		s.popOwn()
	}
}

// deliver accounts one delivery; it is the engine's OnDeliver hook. A
// global at or below the last one is a total-order violation: the first
// is kept for order_err and none is accounted any further — it reaches
// neither the fingerprint, the log, the trace nor the count.
func (s *deliverySink) deliver(_ seq.NodeID, d *msg.Data) {
	now := s.sched.Now()
	if s.firstG != 0 && d.GlobalSeq <= s.lastG {
		if s.orderErr == nil {
			s.orderErr = fmt.Errorf("global seq %d after %d (order violation or duplicate)", d.GlobalSeq, s.lastG)
		}
		return
	}
	s.note(d.GlobalSeq, d.SourceNode, d.LocalSeq)
	if s.dlog != nil {
		s.storeFailed("durable log", s.dlog.Append(store.Record{
			Global: d.GlobalSeq, Source: d.SourceNode, Local: d.LocalSeq, Payload: d.Payload,
		}))
	}
	s.tel.delivered.Inc() // one per trace line
	if s.lame != nil && s.lame() {
		s.lameDeliveries++ // must stay 0: the lame ring is read-only
	}
	if s.firstG == 0 {
		s.firstG, s.firstAt = d.GlobalSeq, now
	} else if gap := now - s.lastAt; gap > s.maxGap {
		s.maxGap = gap
	}
	s.lastG, s.lastAt = d.GlobalSeq, now
	if d.SourceNode == s.self {
		s.ownDelivered(d.LocalSeq, now)
		return
	}
	// The workload stamps each payload with its send wall clock. Only
	// offset-corrected samples count: without an estimate the "latency"
	// would silently include the full clock skew.
	if len(d.Payload) < 8 || s.offsetOf == nil {
		return
	}
	if ts := int64(binary.LittleEndian.Uint64(d.Payload)); ts > 0 {
		if off, ok := s.offsetOf(d.SourceNode); ok {
			lat := time.Duration(time.Now().UnixNano()-ts) + off
			if lat > 0 && lat < time.Minute {
				s.crossLat.Add(lat.Seconds())
				s.tel.crossLat.Observe(lat.Seconds())
			}
		}
	}
}

// lost tombstones a really-lost slot — the engine gave up repair and
// skipped it to keep the stream moving — in the dead-letter queue, for
// offline inspection and replay. Peers' verdicts applied via Skip land
// here too, so every member records the same holes it actually has.
// It is the engine's OnLost hook.
func (s *deliverySink) lost(_ seq.NodeID, g seq.GlobalSeq, src seq.NodeID, local seq.LocalSeq, reason string) {
	s.tel.emit("dlq-tombstone", uint64(g), reason)
	s.storeFailed("dead-letter queue", s.dlq.Add(store.DLQEntry{
		Global: g, Source: src, Local: local, Reason: reason,
		WallNS: time.Now().UnixNano(),
	}))
}

// storeFailed keeps the first durable-plane error for the report.
func (s *deliverySink) storeFailed(what string, err error) {
	if err != nil && s.storeErr == nil {
		s.storeErr = err
		fmt.Fprintf(os.Stderr, "wire: group %d %s: %v\n", s.gid, what, err)
	}
}

// delivered is the group's delivery count, read back from the registry
// instrument so /metrics and the reports can never disagree.
func (s *deliverySink) delivered() uint64 { return s.tel.delivered.Value() }

// recoveredFront is the durable position found at open (0 without one).
func (s *deliverySink) recoveredFront() seq.GlobalSeq {
	if s.dlog == nil {
		return 0
	}
	return s.dlog.RecoveredFront()
}

// throughput is (delivered − 1) ÷ (last − first delivery time), per
// second.
func (s *deliverySink) throughput() float64 {
	n, span := s.delivered(), (s.lastAt - s.firstAt).Seconds()
	if n < 2 || span <= 0 {
		return 0
	}
	return float64(n-1) / span
}

// fill writes the sink's share of a report.
func (s *deliverySink) fill(rep *GroupReport) {
	rep.Delivered = s.delivered()
	rep.Control.Delivered = rep.Delivered
	rep.OrderHash = s.oh.Hex()
	rep.FirstGlobal = uint64(s.firstG)
	rep.LastGlobal = uint64(s.lastG)
	rep.ThroughputPS = s.throughput()
	rep.LatencyMeanMS = s.lat.Mean() * 1000
	rep.LatencyP99MS = s.lat.Quantile(0.99) * 1000
	rep.MaxGapMS = float64(s.maxGap) / float64(sim.Millisecond)
	if s.crossLat.N() > 0 {
		rep.CrossLatMeanMS = s.crossLat.Mean() * 1000
		rep.CrossLatP99MS = s.crossLat.Quantile(0.99) * 1000
		rep.CrossLatN = s.crossLat.N()
	}
	if s.orderErr != nil {
		rep.OrderErr = s.orderErr.Error()
	}
	rep.LameDeliveries = s.lameDeliveries
	if s.dlq != nil {
		rep.DLQEntries = s.dlq.Len()
	}
	if s.storeErr != nil {
		rep.StoreErr = s.storeErr.Error()
	}
}

// sync fsyncs the durable plane; free while nothing was appended.
func (s *deliverySink) sync() {
	if s.dlog != nil {
		s.storeFailed("durable log sync", s.dlog.Sync())
		s.storeFailed("dead-letter queue sync", s.dlq.Sync())
	}
}

// finish readies the exit snapshot: the durable plane fsynced, so the
// report never claims more than the disk holds, and the trace flushed
// while still serialized with deliver.
func (s *deliverySink) finish() {
	s.sync()
	if s.trace != nil {
		s.trace.Flush()
	}
}

// close flushes and closes the trace and the durable plane. Idempotent;
// call only after the daemon's driver has stopped (or before it starts).
func (s *deliverySink) close() {
	if s.trace != nil {
		s.trace.Flush()
		s.trace = nil
	}
	if s.traceFile != nil {
		s.traceFile.Close()
		s.traceFile = nil
	}
	if s.dlog != nil {
		s.dlog.Close()
		s.dlog = nil
	}
	if s.dlq != nil {
		s.dlq.Close()
		s.dlq = nil
	}
}
