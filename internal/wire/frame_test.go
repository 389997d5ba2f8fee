package wire

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/msg"
	"repro/internal/seq"
)

func sampleMsgs() []msg.Message {
	tok := seq.NewToken(1)
	tok.NextGlobalSeq = 42
	if _, err := tok.Assign(3, 9, 1, 5); err != nil {
		panic(err)
	}
	later := tok.Clone()
	later.Hops += 3
	if _, err := later.Assign(4, 4, 1, 2); err != nil {
		panic(err)
	}
	return []msg.Message{
		&msg.Data{Group: 1, SourceNode: 3, LocalSeq: 7, OrderingNode: 2, GlobalSeq: 11, Payload: []byte("payload")},
		&msg.Ack{Group: 1, From: 2, Source: 3, CumLocal: 7, CumGlobal: 11,
			Batch: []msg.SourceCum{{Source: 4, Cum: 2}}},
		&msg.TokenMsg{From: 2, Token: tok},
		&msg.TokenMsg{From: 2, Token: later, Base: tok},
		&msg.TokenAck{From: 3, Epoch: 1, Hops: 3, Next: 48, Cum: &msg.Ack{From: 3, CumGlobal: 47}},
		&msg.Skip{Group: 1, From: 2, Range: seq.Range{Min: 5, Max: 6}, AckCum: 4},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	secs := []Section{{Group: 1, Msgs: sampleMsgs()}}
	buf, err := EncodeFrame(9, 77, secs)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != frameSize(secs) {
		t.Fatalf("encoded %d bytes, frameSize says %d", len(buf), frameSize(secs))
	}
	f, err := DecodeFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.From != 9 || f.Seqno != 77 || len(f.Sections) != 1 {
		t.Fatalf("decoded header mismatch: %+v", f)
	}
	got := f.Sections[0]
	if got.Group != 1 || got.Flags != 0 || len(got.Msgs) != len(secs[0].Msgs) {
		t.Fatalf("decoded section mismatch: %+v", got)
	}
	for i, m := range got.Msgs {
		if m.Kind() != secs[0].Msgs[i].Kind() {
			t.Fatalf("msg %d kind %v, want %v", i, m.Kind(), secs[0].Msgs[i].Kind())
		}
		if !bytes.Equal(msg.Encode(m), msg.Encode(secs[0].Msgs[i])) {
			t.Fatalf("msg %d re-encode mismatch", i)
		}
	}
}

// TestFrameMixedGroups: one datagram carrying interleaved sections for
// three groups — the shared-outbox coalescing path — decodes each
// section back to the right group with its messages intact and
// group-tagged sizes that add up (WireSize == len(Encode) transitivity
// up through frameSize).
func TestFrameMixedGroups(t *testing.T) {
	secs := []Section{
		{Group: 7, Msgs: []msg.Message{
			&msg.Data{Group: 7, SourceNode: 1, LocalSeq: 1, OrderingNode: 1, GlobalSeq: 1, Payload: []byte("a")},
			&msg.Ack{Group: 7, From: 2, Source: 1, CumLocal: 1, CumGlobal: 1},
		}},
		{Group: 9, Flags: FlagDone, Msgs: []msg.Message{
			&msg.Heartbeat{From: 3, Epoch: 4},
		}},
		{Group: 2, Msgs: []msg.Message{
			&msg.Skip{Group: 2, From: 1, Range: seq.Range{Min: 1, Max: 2}},
		}},
	}
	buf, err := EncodeFrame(3, 15, secs)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != frameSize(secs) {
		t.Fatalf("encoded %d bytes, frameSize says %d", len(buf), frameSize(secs))
	}
	// The per-section accounting must tile the frame exactly.
	total := headerSize
	for _, s := range secs {
		total += sectionBytes(s)
	}
	if total != len(buf) {
		t.Fatalf("sectionBytes sum %d != frame %d", total, len(buf))
	}
	f, err := DecodeFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Sections) != 3 {
		t.Fatalf("decoded %d sections, want 3", len(f.Sections))
	}
	for i, want := range secs {
		got := f.Sections[i]
		if got.Group != want.Group || got.Flags != want.Flags || len(got.Msgs) != len(want.Msgs) {
			t.Fatalf("section %d: got {group %d flags %d, %d msgs}, want {group %d flags %d, %d msgs}",
				i, got.Group, got.Flags, len(got.Msgs), want.Group, want.Flags, len(want.Msgs))
		}
		for j, m := range got.Msgs {
			if !bytes.Equal(msg.Encode(m), msg.Encode(want.Msgs[j])) {
				t.Fatalf("section %d msg %d re-encode mismatch", i, j)
			}
		}
	}
}

// TestFrameControl: message-less control sections (the Done barrier
// gossip) round-trip; flags coexist with messages in one section.
func TestFrameControl(t *testing.T) {
	buf, err := EncodeFrame(4, 9, []Section{{Group: 6, Flags: FlagDone}})
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != headerSize+sectionOverhead {
		t.Fatalf("control frame is %d bytes, want %d", len(buf), headerSize+sectionOverhead)
	}
	f, err := DecodeFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.From != 4 || f.Seqno != 9 || len(f.Sections) != 1 {
		t.Fatalf("control frame decoded as %+v", f)
	}
	if s := f.Sections[0]; s.Group != 6 || s.Flags != FlagDone || len(s.Msgs) != 0 {
		t.Fatalf("control section decoded as %+v", s)
	}
	both, err := EncodeFrame(4, 10, []Section{{Group: 6, Flags: FlagDone, Msgs: sampleMsgs()}})
	if err != nil {
		t.Fatal(err)
	}
	f, err = DecodeFrame(both)
	if err != nil {
		t.Fatal(err)
	}
	if s := f.Sections[0]; s.Flags != FlagDone || len(s.Msgs) != len(sampleMsgs()) {
		t.Fatalf("flags+msgs section decoded as %+v", s)
	}
}

func TestFrameErrors(t *testing.T) {
	if _, err := EncodeFrame(1, 1, nil); !errors.Is(err, ErrEmptyFrame) {
		t.Fatalf("empty frame: %v", err)
	}
	if _, err := EncodeFrame(1, 1, []Section{{Group: 3}}); !errors.Is(err, ErrEmptySection) {
		t.Fatalf("empty section: %v", err)
	}
	good, err := EncodeFrame(1, 1, []Section{{Group: 1, Msgs: sampleMsgs()}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"short":         good[:headerSize-1],
		"magic":         append([]byte{0, 0}, good[2:]...),
		"version":       append([]byte{good[0], good[1], 99}, good[3:]...),
		"v1 header":     append([]byte{good[0], good[1], 1}, good[3:]...),
		"v2 header":     append([]byte{good[0], good[1], 2}, good[3:]...),
		"v3 header":     append([]byte{good[0], good[1], 3}, good[3:]...),
		"truncated":     good[:len(good)-3],
		"trailing":      append(append([]byte(nil), good...), 1, 2, 3),
		"zero sections": func() []byte { b := append([]byte(nil), good...); b[3] = 0; return b }(),
		"empty section": func() []byte {
			// Section count says 2 but the second section (group, flags 0,
			// count 0) is structurally empty.
			b := append([]byte(nil), good...)
			b[3] = 2
			return append(b, 5, 0, 0, 0, 0, 0)
		}(),
		"section overflows buffer": func() []byte {
			b := append([]byte(nil), good...)
			b[3] = 2 // promises a second section that is not there
			return b
		}(),
	}
	for name, buf := range cases {
		if _, err := DecodeFrame(buf); err == nil {
			t.Errorf("%s: decode accepted corrupt frame", name)
		}
	}
	// A version error must say which versions disagree — in particular
	// for v2 and v3, whose frames differ only in the message layouts
	// inside them.
	for _, name := range []string{"version", "v1 header", "v2 header", "v3 header"} {
		if _, err := DecodeFrame(cases[name]); !errors.Is(err, ErrBadVersion) {
			t.Errorf("%s: version mismatch not classified: %v", name, err)
		}
	}
	// A frame of garbage message bytes must error, not panic.
	bad := append([]byte(nil), good[:headerSize]...)
	bad = append(bad, 1, 0, 0, 0, 0, 1)                   // section: group 1, flags 0, count 1
	bad = append(bad, 4, 0, 0, 0, 0xff, 0xff, 0xff, 0xff) // garbage message
	bad[3] = 1
	if _, err := DecodeFrame(bad); err == nil {
		t.Error("garbage message accepted")
	}
}

// FuzzFrameDecode throws arbitrary bytes at the frame decoder (it
// must reject garbage with an error, never panic) and, when the input
// parses, pins the codec invariants: the decoded frame must re-encode
// at exactly frameSize — the sum built from the messages' WireSize —
// and encoding must be canonical after one normalization pass (the msg
// layer tolerates some non-canonical inputs, so raw fuzz bytes may
// re-encode shorter; encode∘decode must then be a fixed point).
func FuzzFrameDecode(f *testing.F) {
	if seed, err := EncodeFrame(3, 7, []Section{{Group: 1, Msgs: sampleMsgs()}}); err == nil {
		f.Add(seed)
	}
	if seed, err := EncodeFrame(1, 1, []Section{{Group: 2, Flags: FlagDone}, {Group: 3, Msgs: sampleMsgs()[:1]}}); err == nil {
		f.Add(seed)
	}
	f.Add([]byte{0x4e, 0x52, frameVersion, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data)
		if err != nil {
			return
		}
		enc, err := EncodeFrame(fr.From, fr.Seqno, fr.Sections)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		if len(enc) != frameSize(fr.Sections) {
			t.Fatalf("re-encode %d bytes, frameSize says %d", len(enc), frameSize(fr.Sections))
		}
		fr2, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("normalized frame does not decode: %v", err)
		}
		enc2, err := EncodeFrame(fr2.From, fr2.Seqno, fr2.Sections)
		if err != nil {
			t.Fatalf("normalized frame does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encode∘decode is not a fixed point:\n %x\n %x", enc, enc2)
		}
	})
}
