package msg

import (
	"testing"

	"repro/internal/seq"
)

func BenchmarkEncodeData(b *testing.B) {
	d := &Data{Group: 1, SourceNode: 2, LocalSeq: 3, OrderingNode: 4, GlobalSeq: 5, Payload: make([]byte, 256)}
	b.ReportAllocs()
	b.SetBytes(int64(d.WireSize()))
	for i := 0; i < b.N; i++ {
		if buf := Encode(d); len(buf) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkDecodeData(b *testing.B) {
	d := &Data{Group: 1, SourceNode: 2, LocalSeq: 3, OrderingNode: 4, GlobalSeq: 5, Payload: make([]byte, 256)}
	buf := Encode(d)
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// wireProfileToken builds the table a wire-path token circulates: four
// members taking turns, each ordering its own short runs, compacted at
// the wire profile's CompactAbove of 256 down to three quarters of it.
func wireProfileToken(tb testing.TB, entries int) *seq.Token {
	tb.Helper()
	tok := seq.NewToken(1)
	tok.Epoch, tok.Hops = 3, 1<<20
	for i := 0; tok.Table.Len() < entries || i < 2*entries; i++ {
		src := seq.NodeID(i%4 + 1)
		lo := tok.Table.MaxAssignedLocal(src) + 1
		if _, err := tok.Assign(src, src, lo, lo+seq.LocalSeq(i%5)); err != nil {
			tb.Fatal(err)
		}
		if tok.Table.Len() > 256 {
			tok.Table.Compact(tok.Table.HorizonForSize(192))
		}
	}
	tok.Table.Compact(tok.Table.HorizonForSize(entries))
	return tok
}

func BenchmarkEncodeToken(b *testing.B) {
	m := &TokenMsg{From: 1, Token: wireProfileToken(b, 224)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if buf := Encode(m); len(buf) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkDecodeToken(b *testing.B) {
	buf := Encode(&TokenMsg{From: 1, Token: wireProfileToken(b, 224)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}
