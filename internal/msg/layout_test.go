package msg

import (
	"encoding/hex"
	"testing"

	"repro/internal/seq"
)

// pinnedMessages is one message of every kind, with each optional field
// both present and absent somewhere, and multi-byte values in the varint
// fields.
func pinnedMessages(tb testing.TB) []Message {
	tb.Helper()
	tok := seq.NewToken(4)
	tok.Epoch, tok.Hops = 2, 300
	for _, a := range [][4]uint64{{1, 1, 1, 3}, {2, 9, 1, 1}, {1, 1, 4, 200}} {
		if _, err := tok.Assign(seq.NodeID(a[0]), seq.NodeID(a[1]), seq.LocalSeq(a[2]), seq.LocalSeq(a[3])); err != nil {
			tb.Fatal(err)
		}
	}
	later := tok.Clone()
	later.Hops++
	if _, err := later.Assign(2, 2, 2, 5); err != nil {
		tb.Fatal(err)
	}
	if !later.DeltaFrom(tok) {
		tb.Fatal("later does not extend tok")
	}
	return []Message{
		&Data{Group: 7, SourceNode: 3, LocalSeq: 42, OrderingNode: 9, GlobalSeq: 1000, Payload: []byte("hi")},
		&Data{Group: 7, SourceNode: 3, LocalSeq: 43, AckCum: 999, Payload: []byte{}},
		&Ack{Group: 1, From: 2, Source: 3, CumLocal: 4, CumGlobal: 1 << 20},
		&Ack{Group: 300, From: 2, CumGlobal: 77, Batch: []SourceCum{{Source: 3, Cum: 9}, {Source: 200, Cum: 1 << 33}}},
		&Nack{Group: 1, From: 2, Range: seq.Range{Min: 3, Max: 9}},
		&TokenMsg{From: 8},
		&TokenMsg{From: 8, Token: tok},
		&TokenMsg{From: 8, Token: later, Base: tok},
		&TokenAck{From: 4, Epoch: 2, Hops: 301, Next: 100},
		&TokenAck{From: 4, Epoch: 2, Hops: 301, Next: 100, Cum: &Ack{Group: 1, From: 4, CumGlobal: 88, Batch: []SourceCum{{Source: 1, Cum: 33}}}},
		&TokenRegen{Origin: 1, From: 2},
		&TokenRegen{Origin: 1, From: 2, Token: tok},
		&Join{Group: 1, Host: 2, Node: 3, Batch: 4, Resume: 5},
		&Leave{Group: 1, Host: 2, Node: 3, Failure: true, Batch: 7},
		&Leave{Group: 1, Host: 2, Node: 3},
		&HandoffNotify{Group: 1, Host: 2, OldAP: 3, Delivered: 99},
		&Reserve{Group: 1, From: 2, TTL: 3},
		&Progress{Group: 1, Child: 2, Host: 3, Max: 1234},
		&Heartbeat{From: 6, Epoch: 42},
		&Skip{Group: 1, From: 2, Range: seq.Range{Min: 3, Max: 9}},
		&Skip{Group: 1, From: 2, Range: seq.Range{Min: 3, Max: 9}, Jump: true, AckCum: 7},
		&JoinReq{Group: 1, Node: 9, Addr: "127.0.0.1:9009", Front: 4242},
		&JoinReq{Group: 1, Node: 9},
		&LeaveReq{Group: 1, Node: 4},
		&RingUpdate{Group: 1, Epoch: 9, Coord: 1, Baseline: 500, Members: []MemberAddr{
			{Node: 1, Addr: "127.0.0.1:1"}, {Node: 4, Addr: ""},
		}, Merge: true, MergeTokenEpoch: 3, Resume: []ResumeEntry{{Node: 4, Front: 321}}},
		&RingUpdate{Group: 1, Epoch: 1, Coord: 3},
		&TimeSync{Phase: 1, T1: 123456789, T2: -5},
		&QuorumVote{Group: 1, Epoch: 5, Base: 4, Proposer: 2, Voter: 3, Granted: true},
		&RingSummary{Group: 1, From: 2, Epoch: 3, Front: 4, OrderHash: 0xdeadbeef, TokenEpoch: 5, TokenHops: 6},
		&MergeReq{Group: 1, Node: 2, Addr: "10.0.0.2:99", Epoch: 3, Front: 4, OrderHash: 5, TokenEpoch: 6, TokenHops: 7},
		&Ack{Group: 1, From: 2, CumGlobal: 77, Batch: []SourceCum{{Source: 3, Cum: 9}, {Source: 4, Cum: 200}},
			Gaps: []SourceGap{{Source: 4, Above: 203}}},
		&Done{},
		&Done{Drained: true},
	}
}

// pinnedHex is what frame version 7 puts on the wire for pinnedMessages,
// in order.
var pinnedHex = []string{
	"0107032a09e80700026869",
	"0107032b000001e70700",
	"020102030480804000",
	"02ac020200004d020309c8018080808020",
	"0301020309",
	"040800",
	"04080104ca0102ac0203010102000102020900010701c4010201c8010201",
	"04080204ce0102ad020104370c94aa47a52a2700010702030201c8010205",
	"050402ad026400",
	"050402ad0264010104000058010121",
	"07010200",
	"0701020104ca0102ac0203010102000102020900010701c4010201c8010201",
	"090102030405",
	"0a0102030107",
	"0a0102030000",
	"0b01020363",
	"0d010203",
	"0e010203d209",
	"0f062a",
	"11010203090000",
	"1101020309010107",
	"1201090e3132372e302e302e313a39303039019221",
	"1201090000",
	"130104",
	"14010901f40302010b3132372e302e302e313a3104000101030104c102",
	"140101030000000000",
	"150115cd5b0700000000fbffffffffffffff",
	"16010504020301",
	"1701020304efbeadde000000000506",
	"1801020b31302e302e302e323a3939030405000000000000000607",
	"02010200004d02030904c8010104cb01",
	"1900",
	"1901",
}

// TestLayoutBytesPinned pins every kind's encoding byte for byte: peers of
// one frame version must agree on it. Each encoding must also be exactly
// WireSize long and decode to a message that encodes to the same bytes.
func TestLayoutBytesPinned(t *testing.T) {
	msgs := pinnedMessages(t)
	if len(msgs) != len(pinnedHex) {
		for _, m := range msgs {
			t.Logf("%q,", hex.EncodeToString(Encode(m)))
		}
		t.Fatalf("%d messages, %d pinned encodings", len(msgs), len(pinnedHex))
	}
	for i, m := range msgs {
		enc := Encode(m)
		if got := hex.EncodeToString(enc); got != pinnedHex[i] {
			t.Errorf("%d %v: encodes as\n %s, pinned\n %s", i, m.Kind(), got, pinnedHex[i])
		}
		if len(enc) != m.WireSize() {
			t.Errorf("%d %v: %d bytes, WireSize %d", i, m.Kind(), len(enc), m.WireSize())
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Errorf("%d %v: %v", i, m.Kind(), err)
			continue
		}
		if again := hex.EncodeToString(Encode(dec)); again != pinnedHex[i] {
			t.Errorf("%d %v: re-encodes as\n %s", i, m.Kind(), again)
		}
	}
}
