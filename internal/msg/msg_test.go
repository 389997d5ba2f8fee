package msg

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/seq"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	buf := Encode(m)
	// WireSize feeds the bandwidth model; it must equal the real
	// encoding, not approximate it.
	if len(buf) != m.WireSize() {
		t.Fatalf("%v: encoded %d bytes, WireSize says %d", m.Kind(), len(buf), m.WireSize())
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode(%v): %v", m.Kind(), err)
	}
	if got.Kind() != m.Kind() {
		t.Fatalf("kind mismatch: %v vs %v", got.Kind(), m.Kind())
	}
	return got
}

func TestRoundTripData(t *testing.T) {
	d := &Data{Group: 7, SourceNode: 3, LocalSeq: 42, OrderingNode: 9, GlobalSeq: 1000, Payload: []byte("hello")}
	got := roundTrip(t, d).(*Data)
	if !reflect.DeepEqual(d, got) {
		t.Fatalf("got %+v want %+v", got, d)
	}
	if !d.Ordered() {
		t.Fatal("Ordered should be true with GlobalSeq set")
	}
	u := &Data{Group: 7, SourceNode: 3, LocalSeq: 1}
	if u.Ordered() {
		t.Fatal("Ordered should be false with GlobalSeq=0")
	}
}

func TestRoundTripDataEmptyPayload(t *testing.T) {
	d := &Data{Group: 1, SourceNode: 2, LocalSeq: 3}
	got := roundTrip(t, d).(*Data)
	if len(got.Payload) != 0 {
		t.Fatalf("payload = %v, want empty", got.Payload)
	}
}

// TestKindBytes pins every kind's byte on the wire — frames from
// different builds of the same frame version must agree on them — and
// that the four bytes retired with the kinds nothing ever sent
// (token-loss 6, multiple-token 8, handoff-leave 12, source-data 16) are
// refused as unknown, whatever body follows.
func TestKindBytes(t *testing.T) {
	want := map[Kind]uint8{
		KindData: 1, KindAck: 2, KindNack: 3, KindToken: 4, KindTokenAck: 5,
		KindTokenRegen: 7, KindJoin: 9, KindLeave: 10, KindHandoffNotify: 11,
		KindReserve: 13, KindProgress: 14, KindHeartbeat: 15, KindSkip: 17,
		KindJoinReq: 18, KindLeaveReq: 19, KindRingUpdate: 20, KindTimeSync: 21,
		KindQuorumVote: 22, KindRingSummary: 23, KindMergeReq: 24, KindDone: 25,
	}
	for k, b := range want {
		if uint8(k) != b {
			t.Errorf("%v is byte %d, want %d", k, uint8(k), b)
		}
	}
	named := 0
	for _, k := range kinds {
		if k.name != "" {
			named++
		}
	}
	if named != len(want)+1 { // + KindInvalid
		t.Errorf("%d named kinds, %d pinned", named, len(want)+1)
	}
	for _, b := range []byte{6, 8, 12, 16} {
		if kinds[b].name != "" || kinds[b].new != nil {
			t.Errorf("retired kind byte %d still has a name", b)
		}
		if m, err := Decode(append([]byte{b}, make([]byte, 32)...)); err == nil {
			t.Errorf("retired kind byte %d decoded as %v", b, m.Kind())
		}
	}
}

func TestRoundTripAckNack(t *testing.T) {
	a := &Ack{Group: 1, From: 2, Source: 3, CumLocal: 4, CumGlobal: 5}
	if !reflect.DeepEqual(a, roundTrip(t, a).(*Ack)) {
		t.Fatal("ack mismatch")
	}
	n := &Nack{Group: 1, From: 2, Range: seq.Range{Min: 3, Max: 9}}
	if !reflect.DeepEqual(n, roundTrip(t, n).(*Nack)) {
		t.Fatal("nack mismatch")
	}
}

func TestRoundTripToken(t *testing.T) {
	tok := seq.NewToken(4)
	if _, err := tok.Assign(1, 8, 1, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := tok.Assign(2, 9, 1, 3); err != nil {
		t.Fatal(err)
	}
	tok.Epoch = 3
	tok.Hops = 77
	m := &TokenMsg{From: 8, Token: tok}
	got := roundTrip(t, m).(*TokenMsg)
	if got.From != 8 || got.Token == nil {
		t.Fatalf("got %+v", got)
	}
	if got.Token.NextGlobalSeq != tok.NextGlobalSeq || got.Token.Epoch != 3 || got.Token.Hops != 77 {
		t.Fatalf("token header mismatch: %v", got.Token)
	}
	if got.Token.Table.Len() != 2 {
		t.Fatalf("table len = %d", got.Token.Table.Len())
	}
	g, ord, ok := got.Token.Table.GlobalFor(2, 2)
	if !ok || ord != 9 || g != 7 {
		t.Fatalf("decoded table resolve = %d,%v,%v", g, ord, ok)
	}
}

// TestRoundTripChunkedCompactedToken round-trips a token whose table
// spans many storage chunks and has been compacted (non-zero chunk
// offset, detached runs): the decoded table must resolve every surviving
// assignment, keep the per-source high-water marks of the compacted
// prefix, and measure the same wire size the encoder declared.
func TestRoundTripChunkedCompactedToken(t *testing.T) {
	tok := seq.NewToken(4)
	next := map[seq.NodeID]seq.LocalSeq{}
	const n = 300 // ~10 chunks
	for i := 0; i < n; i++ {
		src := seq.NodeID(i%5 + 1)
		lo := next[src] + 1
		hi := lo + 2
		if _, err := tok.Assign(src, 9, lo, hi); err != nil {
			t.Fatal(err)
		}
		next[src] = hi
	}
	horizon := tok.NextGlobalSeq / 2
	tok.Table.Compact(horizon)
	if err := tok.Table.Validate(); err != nil {
		t.Fatal(err)
	}

	m := &TokenMsg{From: 8, Token: tok}
	buf := Encode(m)
	if len(buf) != m.WireSize() {
		t.Fatalf("encoded %d bytes, WireSize says %d", len(buf), m.WireSize())
	}
	got := roundTrip(t, m).(*TokenMsg)
	if got.Token.Table.Len() != tok.Table.Len() {
		t.Fatalf("decoded %d entries, want %d", got.Token.Table.Len(), tok.Table.Len())
	}
	if err := got.Token.Table.Validate(); err != nil {
		t.Fatalf("decoded table invalid: %v", err)
	}
	if !reflect.DeepEqual(got.Token.Table.Entries(), tok.Table.Entries()) {
		t.Fatal("decoded entries differ")
	}
	// Surviving assignments resolve; compacted high-water marks survive.
	for src, hw := range next {
		if got.Token.Table.MaxAssignedLocal(src) != hw {
			t.Fatalf("source %v high-water %d, want %d", src, got.Token.Table.MaxAssignedLocal(src), hw)
		}
		g1, _, ok1 := tok.Table.GlobalFor(src, hw)
		g2, _, ok2 := got.Token.Table.GlobalFor(src, hw)
		if ok1 != ok2 || g1 != g2 {
			t.Fatalf("source %v: GlobalFor(%d) = (%d,%v), want (%d,%v)", src, hw, g2, ok2, g1, ok1)
		}
		// Re-assigning already-ordered locals must still be rejected.
		if err := got.Token.Table.Append(seq.Pair{
			SourceNode: src, OrderingNode: 9,
			Local:  seq.Range{Min: 1, Max: 1},
			Global: seq.Range{Min: 1 << 30, Max: 1 << 30},
		}); err == nil {
			t.Fatalf("source %v: duplicate assignment accepted after round-trip", src)
		}
	}
}

func TestRoundTripNilToken(t *testing.T) {
	m := &TokenMsg{From: 8}
	got := roundTrip(t, m).(*TokenMsg)
	if got.Token != nil {
		t.Fatal("nil token decoded as non-nil")
	}
	r := &TokenRegen{Origin: 1, From: 2}
	gr := roundTrip(t, r).(*TokenRegen)
	if gr.Token != nil || gr.Origin != 1 || gr.From != 2 {
		t.Fatalf("got %+v", gr)
	}
}

func TestRoundTripControl(t *testing.T) {
	msgs := []Message{
		&TokenAck{From: 1, Epoch: 2, Next: 3},
		&Join{Group: 1, Host: 2, Node: 3, Batch: 4},
		&Leave{Group: 1, Host: 2, Node: 3, Failure: true, Batch: 7},
		&Leave{Group: 1, Host: 2, Node: 3, Failure: false},
		&HandoffNotify{Group: 1, Host: 2, OldAP: 3, Delivered: 99},
		&Reserve{Group: 1, From: 2, TTL: 3},
		&Progress{Group: 1, Child: 2, Host: 3, Max: 1234},
		&Heartbeat{From: 6, Epoch: 42},
		&JoinReq{Group: 1, Node: 9, Addr: "127.0.0.1:9009"},
		&JoinReq{Group: 1, Node: 9},
		&JoinReq{Group: 1, Node: 9, Addr: "127.0.0.1:9009", Front: 4242},
		&LeaveReq{Group: 1, Node: 4},
		&RingUpdate{Group: 1, Epoch: 7, Coord: 1, Baseline: 321, Members: []MemberAddr{
			{Node: 1, Addr: "127.0.0.1:1"}, {Node: 2, Addr: "127.0.0.1:2"}, {Node: 9, Addr: ""},
		}},
		&RingUpdate{Group: 1, Epoch: 1, Coord: 3},
		&RingUpdate{Group: 1, Epoch: 9, Coord: 1, Baseline: 500, Members: []MemberAddr{
			{Node: 1, Addr: "127.0.0.1:1"}, {Node: 4, Addr: "127.0.0.1:4"},
		}, Resume: []ResumeEntry{{Node: 4, Front: 321}}},
		&TimeSync{Phase: 0, T1: 123456789},
		&TimeSync{Phase: 1, T1: 123456789, T2: 123456999},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%v: got %+v want %+v", m.Kind(), got, m)
		}
	}
}

func TestRoundTripTokenRegenWithToken(t *testing.T) {
	tok := seq.NewToken(1)
	if _, err := tok.Assign(1, 2, 1, 1); err != nil {
		t.Fatal(err)
	}
	r := &TokenRegen{Origin: 3, From: 4, Token: tok}
	got := roundTrip(t, r).(*TokenRegen)
	if got.Token == nil || got.Token.NextGlobalSeq != 2 {
		t.Fatalf("got %+v", got.Token)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("decoding empty buffer should fail")
	}
	if _, err := Decode([]byte{255}); err == nil {
		t.Fatal("unknown kind should fail")
	}
	// Truncate every valid message at every length and ensure no panic
	// and an error (or success only at full length).
	tok := wireProfileToken(t, 24)
	later := tok.Clone()
	later.Hops++
	if _, err := later.Assign(2, 2, later.Table.MaxAssignedLocal(2)+1, later.Table.MaxAssignedLocal(2)+3); err != nil {
		t.Fatal(err)
	}
	for _, m := range []Message{
		&Data{Group: 1, SourceNode: 2, LocalSeq: 3, Payload: []byte("abc")},
		&TokenMsg{From: 1, Token: tok},
		&TokenMsg{From: 1, Token: later, Base: tok},
		&TokenRegen{Origin: 1, From: 2, Token: tok},
		&Ack{Group: 300, From: 2, CumGlobal: 1 << 40, Batch: []SourceCum{{Source: 1, Cum: 9}}},
		&TokenAck{From: 2, Epoch: 1, Hops: 500, Next: 70000, Cum: &Ack{From: 2, CumGlobal: 69999}},
	} {
		full := Encode(m)
		for i := 0; i < len(full); i++ {
			if _, err := Decode(full[:i]); err == nil {
				t.Fatalf("%v: truncated decode at %d succeeded", m.Kind(), i)
			}
		}
	}

	// A token's presence byte is 0, 1, or — for a TokenMsg only — 2 (a
	// delta); anything else is not a token.
	delta := Encode(&TokenMsg{From: 1, Token: later, Base: tok})
	for name, b := range map[string][]byte{
		"token presence 3":        {byte(KindToken), 1, 3},
		"regen presence 2":        append([]byte{byte(KindTokenRegen), 1, 2}, delta[2:]...),
		"tokenack ack presence":   {byte(KindTokenAck), 1, 1, 1, 1, 2},
		"delta names a later hop": {byte(KindToken), 1, 2, 1, 9, 0, 4, 5, 0},
		"delta digest truncated":  delta[:3+6+2+7],
		"delta body truncated":    delta[:len(delta)-1],
	} {
		if m, err := Decode(b); err == nil {
			t.Errorf("%s: decoded as %v", name, m)
		}
	}
	// Every integer field is a canonical varint: a zero-padded varint, one
	// past 64 bits, or an identifier past 32 bits is refused.
	for name, b := range map[string][]byte{
		"ack overlong group":      {byte(KindAck), 0x81, 0x00, 2, 0, 1, 1, 0},
		"ack overlong batch cum":  {byte(KindAck), 1, 2, 0, 1, 1, 1, 5, 0x85, 0x80, 0x00},
		"ack from past 32 bits":   {byte(KindAck), 1, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 1, 1, 0},
		"ack cum past 64 bits":    {byte(KindAck), 1, 2, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 1, 0},
		"tokenack overlong hops":  {byte(KindTokenAck), 2, 1, 0xf4, 0x83, 0x00, 9, 0},
		"tokenack overlong epoch": {byte(KindTokenAck), 2, 0x80, 0x00, 3, 9, 0},
		"data overlong local seq": {byte(KindData), 1, 2, 0x83, 0x00, 0, 0, 0, 0},
		"data group past 32 bits": {byte(KindData), 0x80, 0x80, 0x80, 0x80, 0x10, 2, 3, 0, 0, 0, 0},
		"data overlong length":    {byte(KindData), 1, 2, 3, 0, 0, 0, 0x80, 0x00},
		"skip overlong range":     {byte(KindSkip), 1, 2, 0x83, 0x80, 0x00, 4, 0, 0},
		"heartbeat from past 32":  {byte(KindHeartbeat), 0xff, 0xff, 0xff, 0xff, 0x7f, 1},
	} {
		if m, err := Decode(b); !errors.Is(err, ErrVarint) {
			t.Errorf("%s: decoded as %v, err %v; want ErrVarint", name, m, err)
		}
	}

	// Every kind decodes only what its layout encodes: a flag byte is 0
	// or 1, an optional field marked present is non-zero, and the message
	// fills the buffer.
	mutate := func(m Message, at int, b ...byte) []byte {
		enc := Encode(m)
		copy(enc[at:], b)
		return enc
	}
	for name, b := range map[string][]byte{
		"leave failure flag 2":            mutate(&Leave{Group: 1, Failure: true}, 1+1+1+1, 2),
		"quorum vote granted flag 0xff":   mutate(&QuorumVote{Granted: true}, 1+5, 0xff),
		"data ack presence 2":             mutate(&Data{AckCum: 5}, 1+5, 2),
		"data ack present but zero":       mutate(&Data{AckCum: 5}, 1+5+1, 0),
		"join-req front present but zero": mutate(&JoinReq{Front: 1}, 1+3+1, 0),
		"heartbeat trailing byte":         append(Encode(&Heartbeat{From: 1}), 0),
		"token trailing byte":             append(Encode(&TokenMsg{From: 1, Token: tok}), 0),
		"ack trailing byte":               append(Encode(&Ack{From: 1}), 0),
		"ack gap list present but empty":  append(Encode(&Ack{Batch: []SourceCum{{Source: 1, Cum: 4}}}), 0),
		"ack gap at its source's cum":     Encode(&Ack{Batch: []SourceCum{{Source: 1, Cum: 4}}, Gaps: []SourceGap{{Source: 1, Above: 4}}}),
		"ack gap below its source's cum":  Encode(&Ack{Batch: []SourceCum{{Source: 1, Cum: 4}}, Gaps: []SourceGap{{Source: 1, Above: 2}}}),
		"ack gap without a batch entry":   Encode(&Ack{Batch: []SourceCum{{Source: 1, Cum: 4}}, Gaps: []SourceGap{{Source: 2, Above: 9}}}),
	} {
		if m, err := Decode(b); !errors.Is(err, errNonCanonical) {
			t.Errorf("%s: decoded as %v, err %v; want a non-canonical refusal", name, m, err)
		}
	}
	// A count or length the bytes left cannot hold is refused before any
	// loop or allocation.
	for name, b := range map[string][]byte{
		"ring-update members":   mutate(&RingUpdate{Members: []MemberAddr{{Node: 1}}}, 1+4, 0x7f),
		"ring-update resume":    mutate(&RingUpdate{Resume: []ResumeEntry{{Node: 1}}}, 1+4+1+1+1, 0x7f),
		"ack batch":             mutate(&Ack{Batch: []SourceCum{{Source: 1}}}, 1+5, 2),
		"data payload length":   mutate(&Data{Payload: []byte("ab")}, 1+5+1, 3),
		"join-req address size": mutate(&JoinReq{Addr: "a"}, 1+2, 0x7f),
	} {
		if m, err := Decode(b); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: decoded as %v, err %v; want ErrTruncated", name, m, err)
		}
	}

	// Hostile token bodies. Each row is what follows a KindToken's From
	// field and presence byte: the token header (group 1, next 9, epoch
	// 0, hops 0), then the table. The decoder must refuse every one of
	// them — an error, never a panic, a giant allocation, or a table that
	// differs from what the bytes say.
	const (
		ordIsSrc    = 1 << 0
		globalChain = 1 << 1
		localChain  = 1 << 2
	)
	hdr := []byte{1, 9, 0, 0}
	maxU64 := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	rows := []struct {
		name, want string
		body       []byte
	}{
		{"control: one entry, one mark", "", cat(hdr, []byte{1, ordIsSrc, 7, 2, 0, 1, 1, 7, 3})},
		{"entry count beyond the bytes left", "entries in", cat(hdr, []byte{0xff, 0xff, 0x03, ordIsSrc, 7, 2, 0, 1, 1, 7, 3})},
		{"entry count of 2^63", "entries in", cat(hdr, []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})},
		{"high-water count beyond the bytes left", "high-water marks in", cat(hdr, []byte{0, 0xc8, 0x01, 7, 3})},
		{"unknown flag bits", "unknown flag bits", cat(hdr, []byte{1, ordIsSrc | 1<<3, 7, 2, 0, 1, 1, 7, 3})},
		{"local chain with no predecessor", "local chain without a predecessor", cat(hdr, []byte{1, ordIsSrc | localChain, 7, 2, 0, 1, 7, 3})},
		{"local chain from another source's entry", "local chain without a predecessor", cat(hdr, []byte{2, ordIsSrc, 7, 2, 0, 1, ordIsSrc | globalChain | localChain, 8, 0, 2, 7, 3, 8, 1})},
		{"global chain with no predecessor", "global chain without a predecessor", cat(hdr, []byte{1, ordIsSrc | globalChain, 7, 2, 1, 1, 7, 3})},
		{"global start plus run wraps", "wraps 64 bits", cat(hdr, []byte{1, ordIsSrc, 7}, maxU64, []byte{0, 1, 1, 7, 3})},
		{"global gap wraps", "wraps 64 bits", cat(hdr, []byte{2, ordIsSrc, 7, 2, 0, 1, ordIsSrc | localChain, 7, 0}, maxU64, []byte{1, 7, 4})},
		{"local start plus run wraps", "wraps 64 bits", cat(hdr, []byte{1, ordIsSrc, 7, 2, 0}, maxU64, []byte{1, 7, 3})},
		{"overlong varint", "overlong varint", cat(hdr, []byte{1, ordIsSrc, 0x87, 0x00, 2, 0, 1, 1, 7, 3})},
		{"varint past 64 bits", "overflows 64 bits", cat(hdr, []byte{1, ordIsSrc, 7, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 0, 1, 1, 7, 3})},
		{"truncated varint", "truncated", cat(hdr, []byte{1, ordIsSrc, 7, 2, 0, 0x80})},
		{"source id past 32 bits", "exceeds 32 bits", cat(hdr, []byte{1, ordIsSrc, 0x80, 0x80, 0x80, 0x80, 0x10, 2, 0, 1, 0})},
		{"zero source", "invalid pair", cat(hdr, []byte{1, ordIsSrc, 0, 2, 0, 1, 0})},
		{"zero local start", "invalid pair", cat(hdr, []byte{1, ordIsSrc, 7, 2, 0, 0, 1, 7, 3})},
		{"ordering node not elided", "ordering node not elided", cat(hdr, []byte{1, 0, 7, 7, 2, 0, 1, 1, 7, 3})},
		{"global start not elided", "global start not elided", cat(hdr, []byte{2, ordIsSrc, 7, 2, 0, 1, ordIsSrc | localChain, 7, 0, 0, 1, 7, 4})},
		{"local start not elided", "local start not elided", cat(hdr, []byte{2, ordIsSrc, 7, 2, 0, 1, ordIsSrc | globalChain, 7, 0, 4, 1, 7, 4})},
		{"local ranges overlap", "overlaps", cat(hdr, []byte{2, ordIsSrc, 7, 2, 0, 1, ordIsSrc | globalChain, 7, 0, 2, 1, 7, 3})},
		{"high-water below the entries", "below its entries", cat(hdr, []byte{1, ordIsSrc, 7, 2, 0, 1, 1, 7, 2})},
		{"entry source without a high-water", "high-water marks", cat(hdr, []byte{1, ordIsSrc, 7, 2, 0, 1, 1, 8, 3})},
		{"high-water marks out of order", "ascending source order", cat(hdr, []byte{0, 2, 8, 3, 7, 3})},
		{"zero high-water", "below its entries", cat(hdr, []byte{0, 1, 7, 0})},
	}
	for _, row := range rows {
		for _, prefix := range [][]byte{
			{byte(KindToken), 1, 1},
			{byte(KindTokenRegen), 1, 2, 1},
		} {
			m, err := Decode(cat(prefix, row.body))
			if row.want == "" {
				if err != nil {
					t.Errorf("%s: %v", row.name, err)
				}
				continue
			}
			if err == nil {
				t.Errorf("%s: decoded %v", row.name, m)
			} else if !errors.Is(err, seq.ErrWire) || !strings.Contains(err.Error(), row.want) {
				t.Errorf("%s: error %q, want a seq.ErrWire mentioning %q", row.name, err, row.want)
			}
		}
	}
}

// TestTokenBytesBound states the token's size bound for the wire profile
// (CompactAbove 256, one source per member): a chained entry is a flag
// byte, a source and a run length, so a full table stays within 6 bytes
// per entry plus a constant for header, unchained leaders and high-water
// marks — against 40 per entry for fixed-width fields.
func TestTokenBytesBound(t *testing.T) {
	for _, entries := range []int{192, 224, 256} {
		m := &TokenMsg{From: 1, Token: wireProfileToken(t, entries)}
		if got := m.Token.Table.Len(); got != entries {
			t.Fatalf("built %d entries, want %d", got, entries)
		}
		size, bound := len(Encode(m)), 6*entries+64
		if size != m.WireSize() {
			t.Fatalf("%d entries: encoded %d bytes, WireSize %d", entries, size, m.WireSize())
		}
		if size > bound {
			t.Fatalf("%d entries encode in %d bytes, bound %d", entries, size, bound)
		}
		t.Logf("%d entries: %d bytes (%.2f per entry)", entries, size, float64(size)/float64(entries))
	}
}

// TestRoundTripTokenLayouts drives the table shapes the chained layout
// treats differently through the message codec: WireSize must be exact,
// and the decoded token must carry the same table and re-encode to the
// same bytes.
func TestRoundTripTokenLayouts(t *testing.T) {
	pair := func(src, ord seq.NodeID, lmin, gmin, run uint64) seq.Pair {
		return seq.Pair{SourceNode: src, OrderingNode: ord,
			Local: seq.Range{Min: lmin, Max: lmin + run - 1}, Global: seq.Range{Min: gmin, Max: gmin + run - 1}}
	}
	const big = 1 << 40
	shapes := map[string][]seq.Pair{
		"follows a compaction":      {pair(3, 3, 900, 5000, 4), pair(4, 4, 70, 5004, 1), pair(3, 3, 904, 5005, 2)},
		"ordering node not source":  {pair(1, 9, 1, 1, 5), pair(2, 9, 1, 6, 3), pair(1, 2, 6, 9, 1)},
		"locals non-monotone":       {pair(1, 1, 10, 1, 3), pair(1, 1, 1, 4, 2), pair(1, 1, 13, 6, 1), pair(1, 1, 5, 7, 1)},
		"ids and numbers multibyte": {pair(128, 128, big-3, big, 200), pair(1<<31, 300, big, big+200, 1), pair(128, 128, big+197, big+300, 1<<20)},
	}
	for name, pairs := range shapes {
		tok := seq.NewToken(1 << 24)
		tok.Epoch, tok.Hops = 1<<33, 1<<50
		for _, p := range pairs {
			if err := tok.Table.Insert(p); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			tok.NextGlobalSeq = seq.GlobalSeq(p.Global.Max + 1)
		}
		tok.Table.RestoreHighWater(77, 123456) // a source whose entries were compacted away
		for _, m := range []Message{&TokenMsg{From: 8, Token: tok}, &TokenRegen{Origin: 1, From: 2, Token: tok}} {
			got := roundTrip(t, m)
			var dec *seq.Token
			switch v := got.(type) {
			case *TokenMsg:
				dec = v.Token
			case *TokenRegen:
				dec = v.Token
			}
			if dec.Group != tok.Group || dec.NextGlobalSeq != tok.NextGlobalSeq || dec.Epoch != tok.Epoch || dec.Hops != tok.Hops {
				t.Fatalf("%s: header %v, want %v", name, dec, tok)
			}
			if err := dec.Table.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(dec.Table.Entries(), tok.Table.Entries()) || !reflect.DeepEqual(dec.Table.HighWaters(), tok.Table.HighWaters()) {
				t.Fatalf("%s: decoded %v, want %v", name, dec.Table, tok.Table)
			}
			if !bytes.Equal(Encode(got), Encode(m)) {
				t.Fatalf("%s: re-encode differs", name)
			}
		}
	}
}

func TestWireSizeMatchesEncoding(t *testing.T) {
	// WireSize is what the bandwidth model charges; it is the encoded
	// length, zero values and variable-length fields included.
	msgs := []Message{
		&Data{Group: 1, SourceNode: 2, LocalSeq: 3, Payload: make([]byte, 100)},
		&Ack{}, &Nack{}, &Heartbeat{}, &Join{}, &Leave{},
		&HandoffNotify{}, &Reserve{}, &Progress{}, &TokenAck{},
		&JoinReq{Addr: "127.0.0.1:4242"}, &LeaveReq{}, &TimeSync{}, &Done{},
		&RingUpdate{Members: []MemberAddr{{Node: 1, Addr: "127.0.0.1:1"}, {Node: 2, Addr: "10.0.0.2:99"}}},
	}
	for _, m := range msgs {
		if enc, size := len(Encode(m)), m.WireSize(); enc != size {
			t.Errorf("%v: encoded %d bytes, WireSize %d", m.Kind(), enc, size)
		}
	}
}

func TestTokenWireSizeGrowsWithTable(t *testing.T) {
	tok := seq.NewToken(1)
	m := &TokenMsg{Token: tok}
	small := m.WireSize()
	for i := 0; i < 10; i++ {
		if _, err := tok.Assign(seq.NodeID(i+1), 9, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if m.WireSize() <= small {
		t.Fatal("token WireSize should grow with WTSNP entries")
	}
}

func TestKindString(t *testing.T) {
	if KindData.String() != "data" {
		t.Fatal("KindData string")
	}
	if !strings.Contains(Kind(200).String(), "200") {
		t.Fatal("unknown kind string")
	}
}

func TestDataClone(t *testing.T) {
	d := &Data{Group: 1, SourceNode: 2, LocalSeq: 3, Payload: []byte("p")}
	c := d.Clone()
	c.GlobalSeq = 9
	if d.GlobalSeq != 0 {
		t.Fatal("clone aliases struct")
	}
	if &c.Payload[0] != &d.Payload[0] {
		t.Fatal("clone should share payload bytes")
	}
}

func TestQuickDataRoundTrip(t *testing.T) {
	f := func(g, s uint32, l uint64, payload []byte) bool {
		d := &Data{
			Group:      seq.GroupID(g),
			SourceNode: seq.NodeID(s),
			LocalSeq:   seq.LocalSeq(l),
			Payload:    payload,
		}
		got, err := Decode(Encode(d))
		if err != nil {
			return false
		}
		gd := got.(*Data)
		if payload == nil {
			return gd.Group == d.Group && gd.SourceNode == d.SourceNode &&
				gd.LocalSeq == d.LocalSeq && len(gd.Payload) == 0
		}
		return gd.Group == d.Group && gd.SourceNode == d.SourceNode &&
			gd.LocalSeq == d.LocalSeq && bytes.Equal(gd.Payload, d.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickProgressRoundTrip(t *testing.T) {
	f := func(g, c, h uint32, max uint64) bool {
		p := &Progress{Group: seq.GroupID(g), Child: seq.NodeID(c), Host: seq.HostID(h), Max: seq.GlobalSeq(max)}
		got, err := Decode(Encode(p))
		return err == nil && reflect.DeepEqual(got, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTokenRoundTripCompacted pins the decode path for tokens whose table
// was compacted: surviving runs no longer start at each source's first
// local sequence number, which the contiguity-checking Append would
// reject. Decode must rebuild them via Insert.
func TestTokenRoundTripCompacted(t *testing.T) {
	tok := seq.NewToken(3)
	if _, err := tok.Assign(1, 9, 1, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := tok.Assign(2, 9, 1, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := tok.Assign(1, 9, 11, 12); err != nil {
		t.Fatal(err)
	}
	if tok.Table.Compact(15) != 2 {
		t.Fatalf("compaction removed %d entries", tok.Table.Len())
	}
	buf := Encode(&TokenMsg{From: 7, Token: tok})
	m, err := Decode(buf)
	if err != nil {
		t.Fatalf("decoding compacted token: %v", err)
	}
	got := m.(*TokenMsg)
	if got.Token.NextGlobalSeq != tok.NextGlobalSeq || got.Token.Table.Len() != 1 {
		t.Fatalf("round trip: %v", got.Token)
	}
	if g, _, ok := got.Token.Table.GlobalFor(1, 11); !ok || g != 16 {
		t.Fatalf("GlobalFor(1,11) = %d,%v", g, ok)
	}
	// High-water marks must survive the round trip even for sources whose
	// entries were all compacted away, or the rebuilt table would accept
	// duplicate assignment of already-ordered locals.
	if hw := got.Token.Table.MaxAssignedLocal(2); hw != 5 {
		t.Fatalf("source 2 high-water after round trip = %d, want 5", hw)
	}
	if _, err := got.Token.Assign(2, 9, 1, 5); err == nil {
		t.Fatal("duplicate assignment accepted after round trip")
	}
	if _, err := got.Token.Assign(2, 9, 6, 6); err != nil {
		t.Fatalf("legitimate next assignment rejected after round trip: %v", err)
	}
	if err := got.Token.Table.Validate(); err != nil {
		t.Fatal(err)
	}
}
