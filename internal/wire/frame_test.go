package wire

import (
	"bytes"
	"encoding/hex"
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
	if len(buf) != frameSize(9, 77, secs) {
		t.Fatalf("encoded %d bytes, frameSize says %d", len(buf), frameSize(9, 77, secs))
	}
	f, err := DecodeFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.From != 9 || f.Seqno != 77 || len(f.Sections) != 1 {
		t.Fatalf("decoded header mismatch: %+v", f)
	}
	got := f.Sections[0]
	if got.Group != 1 || len(got.Msgs) != len(secs[0].Msgs) {
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
		{Group: 9, Msgs: []msg.Message{
			&msg.Heartbeat{From: 3, Epoch: 4}, &msg.Done{},
		}},
		{Group: 2, Msgs: []msg.Message{
			&msg.Skip{Group: 2, From: 1, Range: seq.Range{Min: 1, Max: 2}},
		}},
	}
	buf, err := EncodeFrame(3, 15, secs)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != frameSize(3, 15, secs) {
		t.Fatalf("encoded %d bytes, frameSize says %d", len(buf), frameSize(3, 15, secs))
	}
	// The per-section accounting must tile the frame exactly, on the
	// sending side from the messages' sizes and on the receiving side from
	// the offsets the decoder walked.
	total := headerSize(3, 15)
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
		if got.wireLen != sectionBytes(want) {
			t.Fatalf("section %d: decoder walked %d bytes, sectionBytes says %d", i, got.wireLen, sectionBytes(want))
		}
		if got.Group != want.Group || len(got.Msgs) != len(want.Msgs) {
			t.Fatalf("section %d: got {group %d, %d msgs}, want {group %d, %d msgs}",
				i, got.Group, len(got.Msgs), want.Group, len(want.Msgs))
		}
		for j, m := range got.Msgs {
			if !bytes.Equal(msg.Encode(m), msg.Encode(want.Msgs[j])) {
				t.Fatalf("section %d msg %d re-encode mismatch", i, j)
			}
		}
	}
}

// TestFrameControl: the Done barrier's gossip is an ordinary two-byte
// message (kind and Drained flag) in its group's section, and a section
// with no message is refused on both sides of the wire.
func TestFrameControl(t *testing.T) {
	done := []Section{{Group: 6, Msgs: []msg.Message{&msg.Done{Drained: true}}}}
	buf, err := EncodeFrame(4, 9, done)
	if err != nil {
		t.Fatal(err)
	}
	if want := headerSize(4, 9) + tagSize(6) + framedSize(2); len(buf) != want || want != 11 {
		t.Fatalf("Done frame is %d bytes, want %d", len(buf), want)
	}
	f, err := DecodeFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if s := f.Sections[0]; f.From != 4 || s.Group != 6 || len(s.Msgs) != 1 || !s.Msgs[0].(*msg.Done).Drained {
		t.Fatalf("Done frame decoded as %+v", f)
	}
	if _, err := EncodeFrame(4, 9, []Section{{Group: 6}}); !errors.Is(err, ErrEmptySection) {
		t.Fatalf("encoding a message-less section: %v, want ErrEmptySection", err)
	}
	hdr := headerSize(4, 9)
	empty := append(buf[:hdr:hdr], 6, 0) // group 6, no messages
	if _, err := DecodeFrame(empty); !errors.Is(err, ErrEmptySection) {
		t.Fatalf("decoding a message-less section: %v, want ErrEmptySection", err)
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
	hdr := headerSize(1, 1)
	cases := map[string][]byte{
		"short":         good[:hdr-1],
		"magic":         append([]byte{0, 0}, good[2:]...),
		"version":       append([]byte{good[0], good[1], 99}, good[3:]...),
		"v1 header":     append([]byte{good[0], good[1], 1}, good[3:]...),
		"v2 header":     append([]byte{good[0], good[1], 2}, good[3:]...),
		"v3 header":     append([]byte{good[0], good[1], 3}, good[3:]...),
		"v4 header":     append([]byte{good[0], good[1], 4}, good[3:]...),
		"v5 header":     append([]byte{good[0], good[1], 5}, good[3:]...),
		"v6 header":     append([]byte{good[0], good[1], 6}, good[3:]...),
		"truncated":     good[:len(good)-3],
		"trailing":      append(append([]byte(nil), good...), 1, 2, 3),
		"zero sections": func() []byte { b := append([]byte(nil), good...); b[3] = 0; return b }(),
		"empty section": func() []byte {
			// Section count says 2 but the second section (group 5,
			// count 0) is structurally empty.
			b := append([]byte(nil), good...)
			b[3] = 2
			return append(b, 5, 0)
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
	if _, err := DecodeFrame(cases["empty section"]); !errors.Is(err, ErrEmptySection) {
		t.Errorf("empty section: %v, want ErrEmptySection", err)
	}
	// A version error must say which versions disagree — in particular
	// for v2 through v6, whose frames a v7 reader would otherwise misread.
	for _, name := range []string{"version", "v1 header", "v2 header", "v3 header", "v4 header", "v5 header", "v6 header"} {
		if _, err := DecodeFrame(cases[name]); !errors.Is(err, ErrBadVersion) {
			t.Errorf("%s: version mismatch not classified: %v", name, err)
		}
	}
	// A frame of garbage message bytes must error, not panic.
	bad := append([]byte(nil), good[:hdr]...)
	bad = append(bad, 1, 1)                         // section: group 1, count 1
	bad = append(bad, 4, 4, 0xff, 0xff, 0xff, 0xff) // garbage message
	bad[3] = 1
	if _, err := DecodeFrame(bad); err == nil {
		t.Error("garbage message accepted")
	}
}

// TestFrameV4Refused: datagrams older daemons sent — captured from their
// encoders: a version-4 one around one Data, and the version-5 and
// version-6 datagrams TestFrameBytesPinned pinned, a flags-only section
// (v5) or a field-less Done (v6) then a Data and a Heartbeat — are
// refused by version, not misread as v7 frames.
func TestFrameV4Refused(t *testing.T) {
	for _, old := range []string{
		"4e520401030000000700000000000000010000000001290000000101000000030000000700000000000000020000000b0000000000000000070000007061796c6f6164",
		"4e52050203f0a204020100ac0200020d01ac0203c80101e80700026869030f0309",
		"4e52060203f0a20402010119ac02020d01ac0203c80101e80700026869030f0309",
	} {
		buf, err := hex.DecodeString(old)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeFrame(buf); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("v%d datagram: %v, want ErrBadVersion", buf[2], err)
		}
	}
}

// TestFrameCanonical: the decoder accepts only what the encoder writes. A
// varint padded with a zero group, an id past 32 bits, a length prefix
// padded the same way, or bytes after the last section are refused, so
// EncodeFrame(DecodeFrame(b)) == b for every b DecodeFrame accepts.
func TestFrameCanonical(t *testing.T) {
	body := msg.Encode(&msg.Heartbeat{From: 3, Epoch: 4})
	frame := func(from, seqno, group []byte, length []byte) []byte {
		b := []byte{0x4e, 0x52, frameVersion, 1}
		b = append(append(append(b, from...), seqno...), group...)
		b = append(append(b, 1), length...)
		return append(b, body...)
	}
	one, n := []byte{1}, []byte{byte(len(body))}
	if _, err := DecodeFrame(frame(one, one, one, n)); err != nil {
		t.Fatalf("control frame refused: %v", err)
	}
	for name, b := range map[string][]byte{
		"overlong from":        frame([]byte{0x81, 0x00}, one, one, n),
		"from past 32 bits":    frame([]byte{0x80, 0x80, 0x80, 0x80, 0x10}, one, one, n),
		"overlong seqno":       frame(one, []byte{0x81, 0x80, 0x00}, one, n),
		"seqno past 64 bits":   frame(one, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, one, n),
		"overlong group":       frame(one, one, []byte{0x81, 0x00}, n),
		"group past 32 bits":   frame(one, one, []byte{0xff, 0xff, 0xff, 0xff, 0x1f}, n),
		"overlong length":      frame(one, one, one, []byte{n[0] | 0x80, 0x00}),
		"trailing after frame": append(frame(one, one, one, n), 0),
	} {
		if _, err := DecodeFrame(b); !errors.Is(err, ErrNonCanonical) {
			t.Errorf("%s: %v, want ErrNonCanonical", name, err)
		}
	}
}

// TestFrameBytesPinned pins a two-section v7 datagram byte for byte: a
// Drained Done for one group, then a Data and a Heartbeat for a group whose id
// takes two varint bytes. Peers of one frame version must
// agree on it; if this fails the change altered the wire.
func TestFrameBytesPinned(t *testing.T) {
	secs := []Section{
		{Group: 2, Msgs: []msg.Message{&msg.Done{Drained: true}}},
		{Group: 300, Msgs: []msg.Message{
			&msg.Data{Group: 300, SourceNode: 3, LocalSeq: 200, OrderingNode: 1, GlobalSeq: 1000, Payload: []byte("hi")},
			&msg.Heartbeat{From: 3, Epoch: 9},
		}},
	}
	buf, err := EncodeFrame(3, 70000, secs)
	if err != nil {
		t.Fatal(err)
	}
	const want = "4e52" + "07" + "02" + "03" + "f0a204" + // magic, version, 2 sections, from 3, seqno 70000
		"02" + "01" + // group 2, 1 message
		"02" + "1901" + // 2-byte Done, Drained
		"ac02" + "02" + // group 300, 2 messages
		"0d" + "01ac0203c80101e807000268" + "69" + // 13-byte Data
		"03" + "0f0309" // 3-byte Heartbeat
	if got := hex.EncodeToString(buf); got != want {
		t.Fatalf("frame encodes as\n %s, pinned\n %s", got, want)
	}
	if len(buf) != frameSize(3, 70000, secs) {
		t.Fatalf("%d bytes, frameSize %d", len(buf), frameSize(3, 70000, secs))
	}
	f, err := DecodeFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	again, err := EncodeFrame(f.From, f.Seqno, f.Sections)
	if err != nil || !bytes.Equal(again, buf) {
		t.Fatalf("re-encodes as %x (%v)", again, err)
	}
}

// TestDataPlaneOverheadBound: one datagram holding one 64 B-payload Data
// on a work-queue hop (source and ordering node small ids, LocalSeq and
// the datagram seqno below 2^21, not yet ordered) costs at most 89 bytes
// on the wire — 25 bytes of framing and fields around the payload. At
// frame version 4 the same datagram was 124 bytes, at version 5 90.
func TestDataPlaneOverheadBound(t *testing.T) {
	d := &msg.Data{Group: 1, SourceNode: 4, LocalSeq: 1<<21 - 1, Payload: make([]byte, 64)}
	buf, err := EncodeFrame(4, 1<<21-1, []Section{{Group: 1, Msgs: []msg.Message{d}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("one 64 B-payload WQ Data: %d-byte datagram, %d-byte message", len(buf), d.WireSize())
	if len(buf) > 89 {
		t.Fatalf("datagram is %d bytes, bound 89", len(buf))
	}
}

// FuzzFrameDecode throws arbitrary bytes at the frame decoder: it must
// reject garbage with an error, never panic, and accept only canonical
// frames — whatever it decodes re-encodes to exactly the input, at
// exactly frameSize, and the byte count the decoder walked per section is
// the size the sender's accounting gives it.
func FuzzFrameDecode(f *testing.F) {
	if seed, err := EncodeFrame(3, 7, []Section{{Group: 1, Msgs: sampleMsgs()}}); err == nil {
		f.Add(seed)
	}
	if seed, err := EncodeFrame(1, 1, []Section{{Group: 2, Msgs: []msg.Message{&msg.Done{Drained: true}}}, {Group: 3, Msgs: sampleMsgs()[:1]}}); err == nil {
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
		if !bytes.Equal(enc, data) {
			t.Fatalf("encode∘decode is not the identity:\n %x\n %x", data, enc)
		}
		if len(enc) != frameSize(fr.From, fr.Seqno, fr.Sections) {
			t.Fatalf("re-encode %d bytes, frameSize says %d", len(enc), frameSize(fr.From, fr.Seqno, fr.Sections))
		}
		for i, s := range fr.Sections {
			if s.wireLen != sectionBytes(s) {
				t.Fatalf("section %d: decoder walked %d bytes, sectionBytes says %d", i, s.wireLen, sectionBytes(s))
			}
		}
	})
}
