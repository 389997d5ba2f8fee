package msg

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/seq"
)

// taker consumes fuzz bytes as message fields.
type taker struct {
	b []byte
	i int
}

func (t *taker) u8() uint8 {
	if t.i >= len(t.b) {
		return 0
	}
	v := t.b[t.i]
	t.i++
	return v
}

func (t *taker) u32() uint32 {
	return uint32(t.u8()) | uint32(t.u8())<<8 | uint32(t.u8())<<16 | uint32(t.u8())<<24
}

func (t *taker) u64() uint64 {
	return uint64(t.u32()) | uint64(t.u32())<<32
}

func (t *taker) payload() []byte {
	n := int(t.u8()) % 64
	p := make([]byte, 0, n)
	for j := 0; j < n; j++ {
		p = append(p, t.u8())
	}
	return p // never nil: Decode materializes empty payloads as []byte{}
}

func (t *taker) rng() seq.Range {
	min := t.u64()%1024 + 1
	return seq.Range{Min: min, Max: min + t.u64()%64}
}

// token builds a structurally valid token from fuzz bytes: Insert
// enforces the table invariants, so conflicting fuzz-chosen pairs are
// simply skipped.
func (t *taker) token() *seq.Token {
	tok := seq.NewToken(seq.GroupID(t.u32()))
	tok.NextGlobalSeq = seq.GlobalSeq(t.u64() % (1 << 40))
	tok.Epoch = t.u64() % 1024
	tok.Hops = t.u64() % 4096
	n := int(t.u8()) % 24
	for j := 0; j < n; j++ {
		p := seq.Pair{
			SourceNode:   seq.NodeID(t.u32()%16 + 1),
			OrderingNode: seq.NodeID(t.u32()%16 + 1),
			Local:        t.rng(),
			Global:       t.rng(),
		}
		_ = tok.Table.Insert(p) // overlaps rejected; fine
	}
	for j := int(t.u8()) % 4; j > 0; j-- {
		tok.Table.RestoreHighWater(seq.NodeID(t.u32()%16+1), seq.LocalSeq(t.u64()%4096))
	}
	return tok
}

// gaps builds a gap report over batch the canonical decoder accepts:
// nil for none, else gaps above their sources' cums.
func (t *taker) gaps(batch []SourceCum) []SourceGap {
	var gs []SourceGap
	for _, sc := range batch {
		g := SourceGap{Source: sc.Source, Above: sc.Cum + 1 + seq.LocalSeq(t.u8()%4)}
		if t.u8()%2 == 1 && gapAboveCum(batch, g) {
			gs = append(gs, g)
		}
	}
	return gs
}

// addr builds a short printable address string from fuzz bytes.
func (t *taker) addr() string {
	n := int(t.u8()) % 24
	b := make([]byte, 0, n)
	for j := 0; j < n; j++ {
		b = append(b, '0'+t.u8()%10)
	}
	return string(b)
}

// build constructs one message of the kind selected by the first fuzz
// byte. Every Kind is reachable; the selector bytes of the four retired
// kinds (6, 8, 12, 16) build nothing.
func build(data []byte) Message {
	t := &taker{b: data}
	switch Kind(t.u8()%uint8(KindDone) + 1) {
	case KindData:
		return &Data{
			Group:        seq.GroupID(t.u32()),
			SourceNode:   seq.NodeID(t.u32()),
			LocalSeq:     seq.LocalSeq(t.u64()),
			OrderingNode: seq.NodeID(t.u32()),
			GlobalSeq:    seq.GlobalSeq(t.u64()),
			AckCum:       seq.GlobalSeq(t.u64() % 3 * t.u64()), // often zero
			Payload:      t.payload(),
		}
	case KindAck:
		a := &Ack{
			Group:     seq.GroupID(t.u32()),
			From:      seq.NodeID(t.u32()),
			Source:    seq.NodeID(t.u32()),
			CumLocal:  seq.LocalSeq(t.u64()),
			CumGlobal: seq.GlobalSeq(t.u64()),
		}
		for j := int(t.u8()) % 8; j > 0; j-- { // nil when 0, matching Decode
			a.Batch = append(a.Batch, SourceCum{Source: seq.NodeID(t.u32()), Cum: seq.LocalSeq(t.u64())})
		}
		a.Gaps = t.gaps(a.Batch)
		return a
	case KindNack:
		return &Nack{Group: seq.GroupID(t.u32()), From: seq.NodeID(t.u32()), Range: t.rng()}
	case KindToken:
		m := &TokenMsg{From: seq.NodeID(t.u32()), Token: t.token()}
		if t.u8()%2 == 1 {
			// A later version of the token, sent as a delta from it.
			later := m.Token.Clone()
			later.Hops += uint64(t.u8()%8) + 1
			for j := int(t.u8()) % 6; j > 0; j-- {
				src := seq.NodeID(t.u32()%16 + 1)
				lo := later.Table.MaxAssignedLocal(src) + 1
				_, _ = later.Assign(src, src, lo, lo+seq.LocalSeq(t.u8()%4))
			}
			if k := int(t.u8()) % 16; k > 0 {
				later.Table.Compact(later.Table.HorizonForSize(k))
			}
			if later.DeltaFrom(m.Token) {
				m.Token, m.Base = later, m.Token
			}
		}
		return m
	case KindTokenAck:
		ta := &TokenAck{From: seq.NodeID(t.u32()), Epoch: t.u64(), Hops: t.u64(), Next: seq.GlobalSeq(t.u64())}
		if t.u8()%2 == 1 {
			ta.Cum = &Ack{From: ta.From, Source: seq.NodeID(t.u32()), CumGlobal: seq.GlobalSeq(t.u64())}
			for j := int(t.u8()) % 4; j > 0; j-- { // nil when 0, matching Decode
				ta.Cum.Batch = append(ta.Cum.Batch, SourceCum{Source: seq.NodeID(t.u32()), Cum: seq.LocalSeq(t.u64())})
			}
			ta.Cum.Gaps = t.gaps(ta.Cum.Batch)
		}
		return ta
	case KindTokenRegen:
		tr := &TokenRegen{Origin: seq.NodeID(t.u32()), From: seq.NodeID(t.u32())}
		if t.u8()%4 != 0 {
			tr.Token = t.token()
		}
		return tr
	case KindJoin:
		return &Join{
			Group:  seq.GroupID(t.u32()),
			Host:   seq.HostID(t.u32()),
			Node:   seq.NodeID(t.u32()),
			Batch:  t.u32(),
			Resume: seq.GlobalSeq(t.u64()),
		}
	case KindLeave:
		return &Leave{
			Group:   seq.GroupID(t.u32()),
			Host:    seq.HostID(t.u32()),
			Node:    seq.NodeID(t.u32()),
			Failure: t.u8()%2 == 1,
			Batch:   t.u32(),
		}
	case KindHandoffNotify:
		return &HandoffNotify{
			Group:     seq.GroupID(t.u32()),
			Host:      seq.HostID(t.u32()),
			OldAP:     seq.NodeID(t.u32()),
			Delivered: seq.GlobalSeq(t.u64()),
		}
	case KindReserve:
		return &Reserve{Group: seq.GroupID(t.u32()), From: seq.NodeID(t.u32()), TTL: t.u8()}
	case KindProgress:
		return &Progress{
			Group: seq.GroupID(t.u32()),
			Child: seq.NodeID(t.u32()),
			Host:  seq.HostID(t.u32()),
			Max:   seq.GlobalSeq(t.u64()),
		}
	case KindHeartbeat:
		return &Heartbeat{From: seq.NodeID(t.u32()), Epoch: t.u64()}
	case KindSkip:
		return &Skip{
			Group:  seq.GroupID(t.u32()),
			From:   seq.NodeID(t.u32()),
			Range:  t.rng(),
			Jump:   t.u8()%2 == 1,
			AckCum: seq.GlobalSeq(t.u64() % 3 * t.u64()),
		}
	case KindJoinReq:
		return &JoinReq{Group: seq.GroupID(t.u32()), Node: seq.NodeID(t.u32()), Addr: t.addr(),
			Front: seq.GlobalSeq(t.u64() % 3 * t.u64())} // often zero
	case KindLeaveReq:
		return &LeaveReq{Group: seq.GroupID(t.u32()), Node: seq.NodeID(t.u32())}
	case KindRingUpdate:
		ru := &RingUpdate{
			Group:    seq.GroupID(t.u32()),
			Epoch:    t.u64(),
			Coord:    seq.NodeID(t.u32()),
			Baseline: seq.GlobalSeq(t.u64()),
		}
		for j := int(t.u8()) % 8; j > 0; j-- { // nil when 0, matching Decode
			ru.Members = append(ru.Members, MemberAddr{Node: seq.NodeID(t.u32()), Addr: t.addr()})
		}
		ru.Merge = t.u8()%2 == 1
		ru.MergeTokenEpoch = t.u64() % 3 * t.u64() // often zero
		for j := int(t.u8()) % 4; j > 0; j-- {     // nil when 0, matching Decode
			ru.Resume = append(ru.Resume, ResumeEntry{Node: seq.NodeID(t.u32()), Front: seq.GlobalSeq(t.u64())})
		}
		return ru
	case KindTimeSync:
		return &TimeSync{Phase: t.u8() % 2, T1: int64(t.u64()), T2: int64(t.u64())}
	case KindQuorumVote:
		return &QuorumVote{
			Group:    seq.GroupID(t.u32()),
			Epoch:    t.u64(),
			Base:     t.u64(),
			Proposer: seq.NodeID(t.u32()),
			Voter:    seq.NodeID(t.u32()),
			Granted:  t.u8()%2 == 1,
		}
	case KindRingSummary:
		return &RingSummary{
			Group:      seq.GroupID(t.u32()),
			From:       seq.NodeID(t.u32()),
			Epoch:      t.u64(),
			Front:      seq.GlobalSeq(t.u64()),
			OrderHash:  t.u64(),
			TokenEpoch: t.u64(),
			TokenHops:  t.u64(),
		}
	case KindMergeReq:
		return &MergeReq{
			Group:      seq.GroupID(t.u32()),
			Node:       seq.NodeID(t.u32()),
			Addr:       t.addr(),
			Epoch:      t.u64(),
			Front:      seq.GlobalSeq(t.u64()),
			OrderHash:  t.u64(),
			TokenEpoch: t.u64(),
			TokenHops:  t.u64(),
		}
	case KindDone:
		return &Done{Drained: t.u8()%2 == 1}
	}
	return nil
}

// FuzzCodecRoundTrip drives every message kind through the binary codec:
// WireSize must equal the encoded length exactly (the bandwidth model
// depends on it), decode(encode(m)) must reproduce m, and re-encoding
// the decoded message must be byte-identical (canonical encoding —
// tokens are rebuilt through table Inserts, so this also checks the
// rebuild is faithful, and a delta token must rebuild against its base
// into the sender's token). The raw fuzz input is additionally thrown at
// Decode, which must reject garbage with an error, never a panic; whatever
// it accepts, of any kind, must re-encode to exactly the bytes it read.
func FuzzCodecRoundTrip(f *testing.F) {
	for k := 1; k <= int(KindDone); k++ {
		seed := append([]byte{byte(k - 1)}, bytes.Repeat([]byte{0x5a, 3, 0xc1, 7}, 40)...)
		f.Add(seed)
		f.Add(append([]byte{byte(k - 1)}, bytes.Repeat([]byte{0xff}, 150)...))
	}
	// One realistic circulating token, as raw bytes for the Decode half:
	// a full wire-profile table, nearly every entry chained.
	f.Add(Encode(&TokenMsg{From: 1, Token: wireProfileToken(f, 256)}))
	base := wireProfileToken(f, 224)
	later := base.Clone()
	later.Hops += 4
	for src := seq.NodeID(1); src <= 4; src++ {
		lo := later.Table.MaxAssignedLocal(src) + 1
		if _, err := later.Assign(src, src, lo, lo+1); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(Encode(&TokenMsg{From: 1, Token: later, Base: base}))
	f.Add(Encode(&TokenAck{From: 3, Epoch: 2, Hops: 1 << 20, Next: 5000,
		Cum: &Ack{From: 3, CumGlobal: 4999, Batch: []SourceCum{{Source: 1, Cum: 70}, {Source: 2, Cum: 300}}}}))
	f.Add(Encode(&Done{Drained: true}))
	f.Add(Encode(&Ack{From: 2, CumGlobal: 40, Batch: []SourceCum{{Source: 1, Cum: 70}, {Source: 3, Cum: 9}},
		Gaps: []SourceGap{{Source: 1, Above: 74}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode must never panic on arbitrary bytes, and what it accepts
		// must be what an honest encoder would have sent.
		if raw, err := Decode(data); err == nil {
			if raw == nil {
				t.Fatal("Decode returned nil message without error")
			}
			if enc := Encode(raw); !bytes.Equal(data, enc) {
				t.Fatalf("%v: accepted a non-canonical encoding:\n in  %x\n out %x", raw.Kind(), data, enc)
			}
		}

		if len(data) == 0 {
			return
		}
		m := build(data)
		if m == nil {
			// A retired kind byte: no struct to build, and Decode must
			// refuse it whatever follows.
			k := data[0]%uint8(KindDone) + 1
			if kinds[k].name != "" {
				t.Fatalf("builder covered no kind for %v", data[0])
			}
			if dec, err := Decode(append([]byte{k}, data[1:]...)); err == nil {
				t.Fatalf("retired kind byte %d decoded as %v", k, dec.Kind())
			}
			return
		}
		enc := Encode(m)
		if got, want := len(enc), m.WireSize(); got != want {
			t.Fatalf("%v: len(Encode) = %d, WireSize = %d", m.Kind(), got, want)
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("%v: decode(encode): %v", m.Kind(), err)
		}
		if dec.Kind() != m.Kind() {
			t.Fatalf("kind changed: %v -> %v", m.Kind(), dec.Kind())
		}
		enc2 := Encode(dec)
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("%v: re-encode not canonical:\n %x\n %x", m.Kind(), enc, enc2)
		}
		switch v := m.(type) {
		case *TokenMsg:
			// Tokens carry a chunked table whose in-memory layout is not
			// unique; byte-level canonical re-encoding above is the
			// equality check. A delta must also rebuild, against the base
			// it was cut from, into the token the sender holds.
			if v.Base != nil {
				got, err := dec.(*TokenMsg).Delta.Rebuild(v.Base)
				if err != nil {
					t.Fatalf("delta does not rebuild against its base: %v", err)
				}
				if !bytes.Equal(got.AppendWire(nil), v.Token.AppendWire(nil)) {
					t.Fatalf("delta rebuilt %v, sender holds %v", got.Table, v.Token.Table)
				}
			}
		case *TokenRegen:
		default:
			if !reflect.DeepEqual(m, dec) {
				t.Fatalf("%v: decode(encode(m)) != m:\n%#v\n%#v", m.Kind(), m, dec)
			}
		}
	})
}
