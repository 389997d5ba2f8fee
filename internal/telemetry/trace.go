package telemetry

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Clock is the single wall-time source shared by the event ring and the
// trace plane, so events and spans stamped in one process are mutually
// ordered. It is anchored once: the wall reading at construction plus
// the monotonic elapsed time since, which keeps span deltas immune to
// wall-clock steps mid-run. A nil *Clock falls back to time.Now, so
// unattached instrumentation keeps working.
type Clock struct {
	baseNS int64
	start  time.Time
	fake   func() int64 // tests: fully synthetic time
}

// NewClock returns a clock anchored to the current wall time.
func NewClock() *Clock {
	return &Clock{baseNS: time.Now().UnixNano(), start: time.Now()}
}

// NewClockAt returns a clock that reads fn — test injection only.
func NewClockAt(fn func() int64) *Clock {
	return &Clock{fake: fn}
}

// Now returns nanoseconds since the Unix epoch.
func (c *Clock) Now() int64 {
	if c == nil {
		return time.Now().UnixNano()
	}
	if c.fake != nil {
		return c.fake()
	}
	return c.baseNS + int64(time.Since(c.start))
}

// Stage identifies one lifecycle point on a message's path from source
// publish to ordered delivery, or an annotation event (retransmit, Nack
// repair, fsync) that explains a gap between lifecycle stages.
type Stage uint8

const (
	// Lifecycle stages, in causal order along the critical path. The
	// source-side chain is publish→enqueue→flush→tx; every member that
	// sees the message then runs rx→wq_accept→stamp→mq_ready→deliver.
	StagePublish  Stage = iota // application handed payload to Submit
	StageEnqueue               // queued into the shared outbox shard
	StageFlush                 // batch window closed, shard stolen
	StageTX                    // datagram handed to the UDP socket
	StageRX                    // datagram decoded off the socket
	StageWQAccept              // inserted into the source queue (WQ)
	StageStamp                 // token assigned the global sequence
	StageMQReady               // MQ front became contiguous through it
	StageDeliver               // handed to the delivery callback

	// Annotation stages: not part of the telescoping chain, but placed
	// on the same timeline to explain where lifecycle gaps came from.
	StageRetransmit // per-message retransmission fired
	StageNackTX     // repair Nack sent for an MQ gap
	StageNackServe  // stored body re-sent to answer a peer's Nack
	StageFsync      // durable-log fsync on the delivery path

	numStages
)

var stageNames = [numStages]string{
	"publish", "outbox_enqueue", "outbox_flush", "tx", "rx",
	"wq_accept", "stamp", "mq_ready", "deliver",
	"retransmit", "nack_tx", "nack_serve", "fsync",
}

// String returns the stable wire name of the stage.
func (s Stage) String() string {
	if s < numStages {
		return stageNames[s]
	}
	return "unknown"
}

// Lifecycle reports whether the stage sits on the telescoping
// publish→deliver chain (annotations are excluded from stage-delta
// histograms).
func (s Stage) Lifecycle() bool { return s <= StageDeliver }

// ParseStage maps a wire name back to its Stage.
func ParseStage(name string) (Stage, bool) {
	for i, n := range stageNames {
		if n == name {
			return Stage(i), true
		}
	}
	return 0, false
}

// LifecycleStages returns the ordered critical-path stages — the rows
// of every stage-breakdown table and the histogram label set.
func LifecycleStages() []Stage {
	out := make([]Stage, 0, int(StageDeliver)+1)
	for s := StagePublish; s <= StageDeliver; s++ {
		out = append(out, s)
	}
	return out
}

// Span is one traced lifecycle point of one message on one member. The
// trace key is the message's natural identity (Group, Source, Local) —
// nothing is added to the wire format; every process derives the same
// key from the fields the protocol already carries.
type Span struct {
	// Seq is the ring-assigned monotone sequence number on this member.
	Seq    uint64 `json:"seq"`
	WallNS int64  `json:"wall_ns"`
	Node   uint32 `json:"node"`
	Stage  string `json:"stage"`

	// Trace key: group, source node, source-local sequence.
	Group  uint32 `json:"group,omitempty"`
	Source uint32 `json:"source,omitempty"`
	Local  uint64 `json:"local,omitempty"`

	// Global is the assigned total-order sequence, once known.
	Global uint64 `json:"global,omitempty"`
	// Peer is the datagram counterparty for tx/rx/nack_serve stages.
	Peer uint32 `json:"peer,omitempty"`
	// DurNS carries a measured duration for annotation spans (fsync).
	DurNS int64 `json:"dur_ns,omitempty"`
	// Detail is optional human context (e.g. a Nack range).
	Detail string `json:"detail,omitempty"`
}

// SampledKey is the deterministic sampler every process shares: FNV-1a
// over the trace key's fixed-width encoding, kept when the hash is
// 0 mod mod. Because the hash input is the message's protocol identity,
// all members sample exactly the same messages with no coordination.
// mod<=0 disables sampling; mod==1 samples everything.
func SampledKey(mod int, group, source uint32, local uint64) bool {
	if mod <= 0 {
		return false
	}
	if mod == 1 {
		return true
	}
	var b [16]byte
	binary.LittleEndian.PutUint32(b[0:4], group)
	binary.LittleEndian.PutUint32(b[4:8], source)
	binary.LittleEndian.PutUint64(b[8:16], local)
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h%uint64(mod) == 0
}

// traceKey identifies one message for stage-delta tracking.
type traceKey struct {
	group  uint32
	source uint32
	local  uint64
}

// maxDeltaKeys bounds the per-key last-stage map; keys are deleted on
// deliver, so the map only grows with concurrently in-flight sampled
// messages. Overflow skips delta observation, never span emission.
const maxDeltaKeys = 8192

// Tracer is the per-member trace plane: a deterministic sampler, a
// bounded span ring (newest overwrites oldest), and per-stage latency
// histograms fed by the delta between consecutive lifecycle spans of
// the same key on this member. All methods are nil-receiver-safe
// no-ops, so the simulator and the steady-state benchmark — which never
// construct one — pay a single branch per hook.
type Tracer struct {
	mod   int
	node  uint32
	clock *Clock

	mu   sync.Mutex
	buf  []Span
	next uint64
	last map[traceKey]int64 // key -> WallNS of its previous lifecycle span
	hist [numStages]*Histogram
}

// NewTracer builds a tracer for node with the given sampling modulus
// and span-ring capacity. mod<=0 returns an inert tracer (Active false)
// so gating stays uniform at call sites; it records nothing, so it
// allocates no span ring and no key map.
func NewTracer(node uint32, mod, capacity int, clock *Clock) *Tracer {
	if mod <= 0 {
		return &Tracer{node: node, clock: clock}
	}
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{
		mod:   mod,
		node:  node,
		clock: clock,
		buf:   make([]Span, capacity),
		last:  make(map[traceKey]int64),
	}
}

// SetStageHistogram attaches the registry histogram that receives the
// delta from the previous lifecycle stage whenever stage s is recorded.
func (t *Tracer) SetStageHistogram(s Stage, h *Histogram) {
	if t == nil || s >= numStages {
		return
	}
	t.hist[s] = h
}

// Active reports whether any key can sample — the cheap guard hot loops
// check before assembling span arguments.
func (t *Tracer) Active() bool { return t != nil && t.mod > 0 }

// Sampled reports whether this trace key is kept.
func (t *Tracer) Sampled(group, source uint32, local uint64) bool {
	if t == nil {
		return false
	}
	return SampledKey(t.mod, group, source, local)
}

// Span records one lifecycle point for a message, if its key is
// sampled: stamps node, ring sequence and clock time, appends to the
// span ring, and observes the delta from the key's previous lifecycle
// stage on this member into the stage's histogram.
func (t *Tracer) Span(stage Stage, group, source uint32, local, global uint64, peer uint32) {
	if t == nil || t.mod <= 0 || !SampledKey(t.mod, group, source, local) {
		return
	}
	now := t.clock.Now()
	sp := Span{
		WallNS: now,
		Node:   t.node,
		Stage:  stage.String(),
		Group:  group,
		Source: source,
		Local:  local,
		Global: global,
		Peer:   peer,
	}
	t.mu.Lock()
	sp.Seq = t.next
	t.buf[t.next%uint64(len(t.buf))] = sp
	t.next++
	if stage.Lifecycle() {
		k := traceKey{group, source, local}
		if prev, ok := t.last[k]; ok {
			t.hist[stage].Observe(float64(now-prev) / 1e9)
		}
		if stage == StageDeliver {
			delete(t.last, k)
		} else if len(t.last) < maxDeltaKeys {
			t.last[k] = now
		}
	}
	t.mu.Unlock()
}

// Annotate records a key-less annotation span (fsync, nack_tx): always
// kept when the tracer is active, since it describes the member, not
// one message. durNS and detail are optional.
func (t *Tracer) Annotate(stage Stage, group uint32, global uint64, durNS int64, detail string) {
	if t == nil || t.mod <= 0 {
		return
	}
	sp := Span{
		WallNS: t.clock.Now(),
		Node:   t.node,
		Stage:  stage.String(),
		Group:  group,
		Global: global,
		DurNS:  durNS,
		Detail: detail,
	}
	t.mu.Lock()
	sp.Seq = t.next
	t.buf[t.next%uint64(len(t.buf))] = sp
	t.next++
	t.mu.Unlock()
}

// Emitted returns the total number of spans ever recorded (0 on nil).
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// Overwritten returns how many spans fell out of the bounded ring.
func (t *Tracer) Overwritten() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	capy := uint64(len(t.buf))
	if t.next > capy {
		return t.next - capy
	}
	return 0
}

// Snapshot returns the retained spans, oldest first.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	capy := uint64(len(t.buf))
	lo := uint64(0)
	if n > capy {
		lo = n - capy
	}
	out := make([]Span, 0, n-lo)
	for s := lo; s < n; s++ {
		out = append(out, t.buf[s%capy])
	}
	return out
}

// WriteNDJSON renders the retained spans as newline-delimited JSON,
// oldest first.
func (t *Tracer) WriteNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, sp := range t.Snapshot() {
		if err := enc.Encode(&sp); err != nil {
			return err
		}
	}
	return nil
}
