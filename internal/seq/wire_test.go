package seq

import (
	"bytes"
	"reflect"
	"testing"
)

// decodeTableBytes is decodeTable over a whole buffer, for tests.
func decodeTableBytes(b []byte) (*WTSNP, int, error) {
	r := &wireReader{buf: b}
	w := NewWTSNP()
	if err := decodeTable(r, w, 0); err != nil {
		return nil, 0, err
	}
	return w, r.off, nil
}

// checkWire asserts the layout's contract on one table: WireLen is the
// encoded length, the encoding decodes to the same entries and high-water
// marks, the decoded table is valid and sized, and it re-encodes to the
// same bytes.
func checkWire(t *testing.T, w *WTSNP) []byte {
	t.Helper()
	enc := w.AppendWire(nil)
	if got := w.WireLen(); got != len(enc) {
		t.Fatalf("WireLen = %d, encoded %d bytes\n%v", got, len(enc), w)
	}
	dec, n, err := decodeTableBytes(enc)
	if err != nil {
		t.Fatalf("decode: %v\n%v", err, w)
	}
	if n != len(enc) {
		t.Fatalf("decode consumed %d of %d bytes", n, len(enc))
	}
	if err := dec.Validate(); err != nil {
		t.Fatalf("decoded table invalid: %v", err)
	}
	if !reflect.DeepEqual(dec.Entries(), w.Entries()) {
		t.Fatalf("decoded entries differ:\n got %v\nwant %v", dec, w)
	}
	if !reflect.DeepEqual(dec.HighWaters(), w.HighWaters()) {
		t.Fatalf("decoded high-water marks %v, want %v", dec.HighWaters(), w.HighWaters())
	}
	if got := dec.WireLen(); got != len(enc) {
		t.Fatalf("decoded table WireLen = %d, encoded %d bytes", got, len(enc))
	}
	if re := dec.AppendWire(nil); !bytes.Equal(re, enc) {
		t.Fatalf("re-encode not canonical:\n %x\n %x", enc, re)
	}
	return enc
}

func mustInsert(t *testing.T, w *WTSNP, src, ord NodeID, lmin, gmin, run uint64) {
	t.Helper()
	p := Pair{SourceNode: src, OrderingNode: ord,
		Local: Range{Min: lmin, Max: lmin + run - 1}, Global: Range{Min: gmin, Max: gmin + run - 1}}
	if err := w.Insert(p); err != nil {
		t.Fatal(err)
	}
}

func TestWireLayoutShapes(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		if enc := checkWire(t, NewWTSNP()); !bytes.Equal(enc, []byte{0, 0}) {
			t.Fatalf("empty table encodes as %x", enc)
		}
	})
	t.Run("fully chained entry is three bytes", func(t *testing.T) {
		w := NewWTSNP()
		mustInsert(t, w, 1, 1, 1, 1, 4)
		before := w.WireLen()
		mustInsert(t, w, 1, 1, 5, 5, 4)
		if got := w.WireLen() - before; got != 3 {
			t.Fatalf("chained entry added %d bytes, want 3", got)
		}
		checkWire(t, w)
	})
	t.Run("first entry follows a compaction", func(t *testing.T) {
		// No global or local predecessor for the survivors: both starts
		// travel explicitly, and the compacted source keeps its mark.
		tok := NewToken(1)
		for i := 0; i < 40; i++ {
			src := NodeID(i%3 + 1)
			lo := tok.Table.MaxAssignedLocal(src) + 1
			if _, err := tok.Assign(src, src, lo, lo+2); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tok.Assign(7, 7, 1, 9); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			lo := tok.Table.MaxAssignedLocal(1) + 1
			if _, err := tok.Assign(1, 1, lo, lo); err != nil {
				t.Fatal(err)
			}
		}
		tok.Table.Compact(tok.NextGlobalSeq - 4)
		if tok.Table.Len() != 3 || tok.Table.MaxAssignedLocal(7) != 9 {
			t.Fatalf("setup: %v", tok.Table)
		}
		checkWire(t, tok.Table)
	})
	t.Run("ordering node differs from source", func(t *testing.T) {
		w := NewWTSNP()
		mustInsert(t, w, 1, 9, 1, 1, 2)
		mustInsert(t, w, 2, 2, 1, 3, 2)
		mustInsert(t, w, 1, 200, 3, 5, 1)
		checkWire(t, w)
	})
	t.Run("locals non-monotone in global order", func(t *testing.T) {
		// Source 1's later-ordered run has the lower locals: the second
		// entry cannot chain, and the third chains from the running
		// maximum (12), not from the entry before it.
		w := NewWTSNP()
		mustInsert(t, w, 1, 1, 10, 1, 3)
		mustInsert(t, w, 1, 1, 1, 4, 2)
		mustInsert(t, w, 1, 1, 13, 6, 1)
		mustInsert(t, w, 1, 1, 5, 7, 1)
		checkWire(t, w)
	})
	t.Run("global holes", func(t *testing.T) {
		w := NewWTSNP()
		mustInsert(t, w, 1, 1, 1, 5, 2)
		mustInsert(t, w, 2, 2, 1, 100, 2)
		mustInsert(t, w, 1, 1, 3, 102, 2)
		checkWire(t, w)
	})
	t.Run("multi-byte varints", func(t *testing.T) {
		w := NewWTSNP()
		const big = 1 << 40
		mustInsert(t, w, 128, 128, big-3, big, 200)
		mustInsert(t, w, 70000, 1<<31, big, big+200, 1)
		mustInsert(t, w, 128, 128, big+197, big+201, 1<<20)
		w.RestoreHighWater(1<<32-1, 1<<63)
		checkWire(t, w)
	})
	t.Run("interior insert and restore", func(t *testing.T) {
		w := NewWTSNP()
		mustInsert(t, w, 1, 1, 1, 1, 2)
		mustInsert(t, w, 1, 1, 9, 9, 2)
		checkWire(t, w)
		mustInsert(t, w, 2, 2, 1, 4, 3) // lands between the two
		checkWire(t, w)
		w.RestoreHighWater(1, 127)
		checkWire(t, w)
		w.RestoreHighWater(1, 128) // mark grows a varint byte
		w.RestoreHighWater(3, 5)   // mark for a source without entries
		checkWire(t, w)
	})
}

// TestWireLenSurvivesClone pins the cache's value semantics: a clone
// carries the size, and sizing or growing either side leaves the other's
// answer right.
func TestWireLenSurvivesClone(t *testing.T) {
	w := NewWTSNP()
	for i := uint64(0); i < 70; i++ {
		mustInsert(t, w, NodeID(i%4+1), NodeID(i%4+1), i/4+1, i+1, 1)
	}
	w.Compact(30)
	c := w.Clone() // both stale
	mustInsert(t, c, 1, 1, 100, 71, 1)
	checkWire(t, c)
	checkWire(t, w)
	d := w.Clone() // both sized
	mustInsert(t, w, 2, 2, 100, 71, 3)
	checkWire(t, w)
	checkWire(t, d)
}

func TestTokenWireRoundTrip(t *testing.T) {
	tok := NewToken(1 << 20)
	tok.Epoch, tok.Hops = 300, 1<<33
	if _, err := tok.Assign(5, 5, 1, 1000); err != nil {
		t.Fatal(err)
	}
	enc := tok.AppendWire([]byte("prefix"))
	if got := tok.WireLen(); got != len(enc)-6 {
		t.Fatalf("WireLen = %d, encoded %d", got, len(enc)-6)
	}
	got, n, err := DecodeToken(append(enc[6:], 0xAA)) // trailing bytes are the caller's
	if err != nil || n != len(enc)-6 {
		t.Fatalf("DecodeToken: n=%d err=%v", n, err)
	}
	if got.Group != tok.Group || got.NextGlobalSeq != tok.NextGlobalSeq || got.Epoch != 300 || got.Hops != 1<<33 {
		t.Fatalf("header: %v", got)
	}
	if !reflect.DeepEqual(got.Table.Entries(), tok.Table.Entries()) {
		t.Fatalf("table: %v", got.Table)
	}
}

// checkInsertPaths is the differential check on Insert's in-order
// shortcut: rebuilding w from its entries through Insert (which appends
// directly whenever an entry lies beyond both predecessors) must agree,
// accept for accept, with rebuilding it through the binary-search path
// alone. The seq differential fuzz runs it on every table it mutates.
func checkInsertPaths(t *testing.T, w *WTSNP) {
	t.Helper()
	fast, slow := NewWTSNP(), NewWTSNP()
	for _, p := range w.Entries() {
		if err := fast.Insert(p); err != nil {
			t.Fatalf("Insert(%v): %v", p, err)
		}
		if err := slow.insertSearch(p); err != nil {
			t.Fatalf("insertSearch(%v): %v", p, err)
		}
		// A replay of the same pair must be refused by both paths.
		if fast.Insert(p) == nil || slow.insertSearch(p) == nil {
			t.Fatalf("duplicate %v accepted", p)
		}
	}
	for _, h := range w.HighWaters() {
		fast.RestoreHighWater(h.Source, h.Max)
		slow.RestoreHighWater(h.Source, h.Max)
	}
	for _, r := range []*WTSNP{fast, slow} {
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.Entries(), w.Entries()) || !reflect.DeepEqual(r.HighWaters(), w.HighWaters()) {
			t.Fatalf("rebuilt table differs:\n got %v\nwant %v", r, w)
		}
		if r.WireLen() != w.WireLen() || !bytes.Equal(r.AppendWire(nil), w.AppendWire(nil)) {
			t.Fatalf("rebuilt table encodes differently:\n got %v\nwant %v", r, w)
		}
	}
}

// FuzzDecodeToken throws arbitrary bytes at the token decoder. It must
// never panic, and whatever it accepts must be a valid table whose
// encoding is exactly the bytes consumed — the layout is canonical, so a
// hostile message cannot decode into a table that differs from what an
// honest encoder would have sent for it.
func FuzzDecodeToken(f *testing.F) {
	tok := NewToken(7)
	tok.Epoch, tok.Hops = 2, 900
	for i := 0; i < 40; i++ {
		src := NodeID(i%4 + 1)
		lo := tok.Table.MaxAssignedLocal(src) + 1
		if _, err := tok.Assign(src, src+NodeID(i%2), lo, lo+LocalSeq(i%3)); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(tok.AppendWire(nil))
	tok.Table.Compact(20)
	f.Add(tok.AppendWire(nil))
	f.Add(NewToken(1).AppendWire(nil))
	f.Add([]byte{1, 1, 0, 0, 1, 5, 1, 0, 0, 0}) // local chain without predecessor
	f.Fuzz(func(t *testing.T, data []byte) {
		tok, n, err := DecodeToken(data)
		if err != nil {
			return
		}
		if err := tok.Table.Validate(); err != nil {
			t.Fatalf("accepted an invalid table: %v", err)
		}
		if got := tok.WireLen(); got != n {
			t.Fatalf("WireLen = %d, consumed %d", got, n)
		}
		if re := tok.AppendWire(nil); !bytes.Equal(re, data[:n]) {
			t.Fatalf("accepted a non-canonical encoding:\n in  %x\n out %x", data[:n], re)
		}
	})
}
