package telemetry

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

// TestSampledKeyDeterministic pins the sampler's contract: every
// process keeps exactly the same trace keys, because the decision is a
// pure function of the message's protocol identity. The fixed-point
// pins catch any change to the hash — which would silently desynchronize
// dumps written by members built from different commits.
func TestSampledKeyDeterministic(t *testing.T) {
	// Fixed-point pins (FNV-1a over the 16-byte LE key encoding).
	wantMod8 := []uint64{6, 14, 22, 30, 38}
	var got []uint64
	for l := uint64(1); l <= 40; l++ {
		if SampledKey(8, 1, 2, l) {
			got = append(got, l)
		}
	}
	if len(got) != len(wantMod8) {
		t.Fatalf("mod 8 keys (group 1, source 2): got %v want %v", got, wantMod8)
	}
	for i := range got {
		if got[i] != wantMod8[i] {
			t.Fatalf("mod 8 keys: got %v want %v", got, wantMod8)
		}
	}

	// Two tracers with different node identities — the cross-process
	// shape — agree on every key.
	a := NewTracer(1, 4, 64, nil)
	b := NewTracer(9, 4, 64, nil)
	for src := uint32(1); src <= 6; src++ {
		for l := uint64(1); l <= 200; l++ {
			if a.Sampled(1, src, l) != b.Sampled(1, src, l) {
				t.Fatalf("tracers disagree on key (1,%d,%d)", src, l)
			}
		}
	}

	// The sampler is unbiased: mod 8 keeps exactly 1/8 of a long
	// single-source stream.
	n := 0
	for l := uint64(1); l <= 100000; l++ {
		if SampledKey(8, 1, 1, l) {
			n++
		}
	}
	if n != 12500 {
		t.Fatalf("mod 8 kept %d of 100000, want 12500", n)
	}

	// Edge moduli: 0 disables, 1 keeps everything.
	if SampledKey(0, 1, 1, 1) {
		t.Fatal("mod 0 must sample nothing")
	}
	for l := uint64(1); l <= 50; l++ {
		if !SampledKey(1, 1, 1, l) {
			t.Fatalf("mod 1 must sample everything (missed local %d)", l)
		}
	}
}

// TestTracerSpanRing exercises the bounded span ring: sampling gate,
// ring-assigned sequence numbers, oldest-first snapshots, overwrite
// accounting, and the per-stage delta histograms.
func TestTracerSpanRing(t *testing.T) {
	now := int64(1000)
	clk := NewClockAt(func() int64 { return now })
	tr := NewTracer(3, 1, 4, clk) // capacity 4, sample everything
	stamp := NewHistogram(LatencyBuckets())
	deliver := NewHistogram(LatencyBuckets())
	tr.SetStageHistogram(StageStamp, stamp)
	tr.SetStageHistogram(StageDeliver, deliver)

	tr.Span(StagePublish, 1, 3, 7, 0, 0)
	now += 2_000_000 // 2ms
	tr.Span(StageStamp, 1, 3, 7, 42, 0)
	now += 3_000_000 // 3ms
	tr.Span(StageDeliver, 1, 3, 7, 42, 0)

	if got := tr.Emitted(); got != 3 {
		t.Fatalf("Emitted = %d, want 3", got)
	}
	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("Snapshot len = %d, want 3", len(spans))
	}
	for i, want := range []string{"publish", "stamp", "deliver"} {
		if spans[i].Stage != want || spans[i].Seq != uint64(i) || spans[i].Node != 3 {
			t.Fatalf("span %d = %+v, want stage %q seq %d node 3", i, spans[i], want, i)
		}
	}
	if spans[1].Global != 42 || spans[1].Local != 7 || spans[1].Source != 3 {
		t.Fatalf("stamp span key wrong: %+v", spans[1])
	}
	// Stage deltas: publish→stamp 2ms, stamp→deliver 3ms.
	if stamp.Count() != 1 || stamp.Sum() < 0.0019 || stamp.Sum() > 0.0021 {
		t.Fatalf("stamp histogram: count %d sum %g, want 1 obs ≈ 2ms", stamp.Count(), stamp.Sum())
	}
	if deliver.Count() != 1 || deliver.Sum() < 0.0029 || deliver.Sum() > 0.0031 {
		t.Fatalf("deliver histogram: count %d sum %g, want 1 obs ≈ 3ms", deliver.Count(), deliver.Sum())
	}

	// Overflow: two more spans push the first two off the capacity-4 ring.
	tr.Annotate(StageFsync, 1, 0, 500, "")
	tr.Annotate(StageNackTX, 1, 9, 0, "range 9-9")
	if got := tr.Overwritten(); got != 1 {
		t.Fatalf("Overwritten = %d, want 1", got)
	}
	spans = tr.Snapshot()
	if len(spans) != 4 || spans[0].Stage != "stamp" || spans[3].Stage != "nack_tx" {
		t.Fatalf("post-overflow snapshot wrong: %+v", spans)
	}

	// The unsampled path emits nothing.
	off := NewTracer(3, 0, 4, clk)
	off.Span(StagePublish, 1, 3, 7, 0, 0)
	off.Annotate(StageFsync, 1, 0, 0, "")
	if off.Active() || off.Emitted() != 0 {
		t.Fatalf("mod-0 tracer emitted %d spans", off.Emitted())
	}

	// Nil-safety: every method on a nil tracer is a no-op.
	var nilTr *Tracer
	nilTr.Span(StageDeliver, 1, 1, 1, 1, 0)
	nilTr.Annotate(StageFsync, 1, 0, 0, "")
	if nilTr.Active() || nilTr.Sampled(1, 1, 1) || nilTr.Emitted() != 0 || nilTr.Snapshot() != nil {
		t.Fatal("nil tracer is not inert")
	}
}

var tracerSink *Tracer

// TestInertTracerHoldsNothing: a daemon with sampling off builds its
// tracer with the full span-ring capacity (16,384 spans, ~1.5 MB if
// allocated); the inert tracer allocates neither the ring nor the key
// map, and every read method reports an empty trace. TotalAlloc is
// process-wide, so the bytes are averaged over many calls: a single
// call's reading also counts whatever another goroutine of the test
// binary allocated meanwhile (5,424 B once).
func TestInertTracerHoldsNothing(t *testing.T) {
	const calls = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		tracerSink = NewTracer(3, 0, 1<<14, nil)
	}
	runtime.ReadMemStats(&after)
	if d := (after.TotalAlloc - before.TotalAlloc) / calls; d > 1<<10 {
		t.Fatalf("inert NewTracer allocated %d B per call, want ≤ 1024", d)
	}
	tr := tracerSink
	if tr.buf != nil || tr.last != nil {
		t.Fatalf("inert tracer holds a span ring (%d) or key map", len(tr.buf))
	}
	tr.Span(StagePublish, 1, 3, 7, 0, 0)
	tr.Annotate(StageFsync, 1, 0, 0, "")
	if tr.Active() || tr.Emitted() != 0 || tr.Overwritten() != 0 || len(tr.Snapshot()) != 0 {
		t.Fatalf("inert tracer: active %v, emitted %d, overwritten %d, %d spans",
			tr.Active(), tr.Emitted(), tr.Overwritten(), len(tr.Snapshot()))
	}
	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("inert WriteNDJSON = %q, %v; want nothing", buf.String(), err)
	}
}

// TestSharedClockOrdersEventsAndSpans pins satellite semantics: the
// event ring and the tracer stamp from one injected clock, so their
// timestamps interleave consistently within a process.
func TestSharedClockOrdersEventsAndSpans(t *testing.T) {
	now := int64(5000)
	clk := NewClockAt(func() int64 { return now })
	ring := NewRing(16)
	ring.SetClock(clk)
	tr := NewTracer(1, 1, 16, clk)

	ring.Emit(Event{Type: "epoch-commit"})
	now++
	tr.Span(StagePublish, 1, 1, 1, 0, 0)
	now++
	ring.Emit(Event{Type: "token-regen"})

	evs := ring.Snapshot()
	sps := tr.Snapshot()
	if evs[0].WallNS != 5000 || sps[0].WallNS != 5001 || evs[1].WallNS != 5002 {
		t.Fatalf("shared clock not respected: events %v %v, span %v",
			evs[0].WallNS, evs[1].WallNS, sps[0].WallNS)
	}
	// A caller-stamped WallNS survives.
	ring.Emit(Event{Type: "custom", WallNS: 42})
	if evs := ring.Snapshot(); evs[2].WallNS != 42 {
		t.Fatalf("explicit WallNS overwritten: %v", evs[2].WallNS)
	}
}

// TestRingSinceAndOverwritten covers the incremental-polling surface:
// SnapshotSince/WriteNDJSONSince return only Seq >= since, and
// Overwritten counts what fell off the window.
func TestRingSinceAndOverwritten(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Emit(Event{Type: "e", Value: uint64(i)})
	}
	if got := r.Emitted(); got != 10 {
		t.Fatalf("Emitted = %d, want 10", got)
	}
	if got := r.Overwritten(); got != 6 {
		t.Fatalf("Overwritten = %d, want 6", got)
	}
	// Window holds Seq 6..9; since=8 returns the last two.
	evs := r.SnapshotSince(8)
	if len(evs) != 2 || evs[0].Seq != 8 || evs[1].Seq != 9 {
		t.Fatalf("SnapshotSince(8) = %+v", evs)
	}
	// since below the window clamps to the window start.
	evs = r.SnapshotSince(2)
	if len(evs) != 4 || evs[0].Seq != 6 {
		t.Fatalf("SnapshotSince(2) = %+v", evs)
	}
	// since past the end is empty.
	if evs := r.SnapshotSince(10); len(evs) != 0 {
		t.Fatalf("SnapshotSince(10) = %+v", evs)
	}
	var buf bytes.Buffer
	if err := r.WriteNDJSONSince(&buf, 9); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], `"seq":9`) {
		t.Fatalf("WriteNDJSONSince(9) = %q", buf.String())
	}
}

// FuzzSpanNDJSON mirrors FuzzFrameDecode's contract for the span wire
// format: arbitrary input never panics the decoder, and any input that
// parses re-encodes to a fixed point after one normalization pass —
// the property the stitcher relies on to round-trip dumps.
func FuzzSpanNDJSON(f *testing.F) {
	seed := []Span{
		{Seq: 0, WallNS: 1700000000000000000, Node: 1, Stage: "publish", Group: 1, Source: 1, Local: 6},
		{Seq: 7, WallNS: 1700000000002000000, Node: 3, Stage: "stamp", Group: 1, Source: 2, Local: 14, Global: 99},
		{Seq: 8, WallNS: 1700000000002500000, Node: 3, Stage: "rx", Group: 1, Source: 2, Local: 14, Peer: 2},
		{Seq: 9, WallNS: 1700000000003000000, Node: 3, Stage: "fsync", Group: 1, DurNS: 150000, Detail: "flush-window"},
	}
	for _, sp := range seed {
		b, err := json.Marshal(&sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"stage":"deliver"`))
	f.Fuzz(func(t *testing.T, line []byte) {
		var sp Span
		if err := json.Unmarshal(line, &sp); err != nil {
			return // malformed input is rejected, not panicked on
		}
		// One normalization pass: re-encode the parsed span.
		enc1, err := json.Marshal(&sp)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		var sp2 Span
		if err := json.Unmarshal(enc1, &sp2); err != nil {
			t.Fatalf("re-decode of own encoding %q: %v", enc1, err)
		}
		enc2, err := json.Marshal(&sp2)
		if err != nil {
			t.Fatalf("second encode: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("not a fixed point: %q vs %q", enc1, enc2)
		}
		if sp2 != sp {
			t.Fatalf("value drift through encode/decode: %+v vs %+v", sp, sp2)
		}
	})
}

// TestStageNames pins the stage name table and its inverse.
func TestStageNames(t *testing.T) {
	want := map[Stage]string{
		StagePublish: "publish", StageEnqueue: "outbox_enqueue",
		StageFlush: "outbox_flush", StageTX: "tx", StageRX: "rx",
		StageWQAccept: "wq_accept", StageStamp: "stamp",
		StageMQReady: "mq_ready", StageDeliver: "deliver",
		StageRetransmit: "retransmit", StageNackTX: "nack_tx",
		StageNackServe: "nack_serve", StageFsync: "fsync",
	}
	for s, name := range want {
		if s.String() != name {
			t.Fatalf("Stage(%d).String() = %q, want %q", s, s.String(), name)
		}
		back, ok := ParseStage(name)
		if !ok || back != s {
			t.Fatalf("ParseStage(%q) = %v, %v", name, back, ok)
		}
	}
	if _, ok := ParseStage("bogus"); ok {
		t.Fatal("ParseStage accepted a bogus name")
	}
	for i, s := range LifecycleStages() {
		if Stage(i) != s || !s.Lifecycle() {
			t.Fatalf("LifecycleStages()[%d] = %v", i, s)
		}
	}
	if StageRetransmit.Lifecycle() || StageFsync.Lifecycle() {
		t.Fatal("annotation stages must not be lifecycle")
	}
}
