package seq

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math/rand"
	"testing"
)

// hopEnd is one ring member's delta state, as the protocol core keeps it:
// the version its successor last acknowledged (the sender's base) and the
// version it last accepted from its predecessor (the receiver's base).
type hopEnd struct {
	txTo   NodeID
	txBase *Token
	rxFrom NodeID
	rxBase *Token
}

// deltaRing drives a token around a ring the way the protocol does —
// the holder assigns its own runs and compacts, the hop is a delta
// whenever the successor acknowledged a base the token extends, a refused
// or lost hop is resent whole — while injecting every fault the delta has
// to survive: lost tokens and acks, epoch bumps, successor changes, a
// receiver that lost its base, and same-version twins with different
// content on either end. Every hop is checked against the oracle: the
// receiver holds the sender's token exactly, byte for byte, or it refused
// the delta and got the whole table.
type deltaRing struct {
	t     *testing.T
	rng   *rand.Rand
	ring  []NodeID
	ends  map[NodeID]*hopEnd
	tok   *Token // the holder's copy
	at    int    // holder index into ring
	nextN NodeID

	deltas, refused, whole int
	refusedBy              map[error]int
}

func newDeltaRing(t *testing.T, seed int64, size int) *deltaRing {
	d := &deltaRing{t: t, rng: rand.New(rand.NewSource(seed)), ends: map[NodeID]*hopEnd{},
		tok: NewToken(7), refusedBy: map[error]int{}}
	for i := 1; i <= size; i++ {
		d.ring = append(d.ring, NodeID(i))
		d.ends[NodeID(i)] = &hopEnd{}
	}
	d.nextN = NodeID(size + 1)
	return d
}

func (d *deltaRing) chance(p float64) bool { return d.rng.Float64() < p }

// work is the holder's visit: order a run of its own messages, sometimes
// ordered at another node, and compact like the core's size cap does.
func (d *deltaRing) work() {
	src := d.ring[d.at]
	if d.chance(0.8) {
		lo := d.tok.Table.MaxAssignedLocal(src) + 1
		ord := src
		if d.chance(0.1) {
			ord = src + 100
		}
		if _, err := d.tok.Assign(src, ord, lo, lo+LocalSeq(d.rng.Intn(4))); err != nil {
			d.t.Fatal(err)
		}
	}
	if n := d.tok.Table.Len(); n > 24 || (n > 4 && d.chance(0.05)) {
		d.tok.Table.Compact(d.tok.Table.HorizonForSize(d.rng.Intn(n)))
	}
}

// reorder returns a same-(epoch, hops, next) twin of tok with different
// content: entry k re-ordered at another node (or, for an empty table, an
// extra high-water mark).
func reorder(tok *Token, k int) *Token {
	tw := tok.Clone()
	tw.Table = NewWTSNP()
	for i, n := 0, tok.Table.Len(); i < n; i++ {
		p := tok.Table.entries.at(i)
		if i == k {
			p.OrderingNode += 1000
		}
		if err := tw.Table.Insert(p); err != nil {
			panic(err)
		}
	}
	for _, h := range tok.Table.HighWaters() {
		tw.Table.RestoreHighWater(h.Source, h.Max)
	}
	if tok.Table.Len() == 0 {
		tw.Table.RestoreHighWater(999, 1)
	}
	return tw
}

// hop forwards the token to the successor and returns the successor's
// copy.
func (d *deltaRing) hop() {
	from := d.ring[d.at]
	d.at = (d.at + 1) % len(d.ring)
	to := d.ring[d.at]
	se, re := d.ends[from], d.ends[to]

	send := d.tok.Clone()
	send.Hops++
	var base *Token
	if se.txTo == to && send.DeltaFrom(se.txBase) {
		base = se.txBase
	}
	want := send.AppendWire(nil)
	var got *Token
	if !d.chance(0.05) { // the first copy arrives
		enc := send.AppendDelta(nil, base)
		if n := send.DeltaLen(base); n != len(enc) {
			d.t.Fatalf("DeltaLen %d, encoded %d", n, len(enc))
		}
		if base == nil {
			d.whole++
			tok, n, err := DecodeToken(enc)
			if err != nil || n != len(enc) {
				d.t.Fatalf("whole token: n=%d err=%v", n, err)
			}
			got = tok
		} else {
			d.deltas++
			dl, n, err := DecodeDelta(enc)
			if err != nil || n != len(enc) {
				d.t.Fatalf("delta decode: n=%d err=%v", n, err)
			}
			if again := dl.AppendWire(nil); !bytes.Equal(again, enc) || dl.WireLen() != len(enc) {
				d.t.Fatalf("delta re-encode differs")
			}
			got, err = dl.Rebuild(re.rxBase)
			if err != nil {
				d.refused++
				d.refusedBy[err]++
				got = nil
			}
		}
	}
	if got == nil { // lost or refused: a resend (the delta, then the whole table) delivers it
		tok, _, err := DecodeToken(want)
		if err != nil {
			d.t.Fatal(err)
		}
		got = tok
	}
	if err := got.Table.Validate(); err != nil {
		d.t.Fatalf("hop %d: rebuilt table invalid: %v", send.Hops, err)
	}
	if enc := got.AppendWire(nil); !bytes.Equal(enc, want) {
		d.t.Fatalf("hop %d %v→%v: receiver holds a different token\n got %v\nwant %v", send.Hops, from, to, got.Table, send.Table)
	}
	if got.digest() != send.digest() {
		d.t.Fatalf("hop %d: equal tokens, different digests", send.Hops)
	}
	re.rxFrom, re.rxBase = from, got.Clone()
	if !d.chance(0.05) { // the ack arrives
		se.txTo, se.txBase = to, send.Clone()
	}
	d.tok = got
}

func TestTokenDeltaDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		d := newDeltaRing(t, seed, 2+int(seed)%4)
		for i := 0; i < 3000; i++ {
			d.work()
			switch {
			case d.chance(0.01): // Token-Regeneration: a new epoch
				d.tok.Epoch++
				d.tok.Hops = 0
			case d.chance(0.01): // membership: the holder's successor changes
				if len(d.ring) > 2 && d.chance(0.5) {
					k := (d.at + 1) % len(d.ring)
					d.ring = append(d.ring[:k], d.ring[k+1:]...)
					if d.at >= len(d.ring) {
						d.at = 0
					}
				} else {
					d.ring = append(d.ring[:d.at+1], append([]NodeID{d.nextN}, d.ring[d.at+1:]...)...)
					d.ends[d.nextN] = &hopEnd{}
					d.nextN++
				}
			case d.chance(0.01): // the successor restarted and lost its base
				d.ends[d.ring[(d.at+1)%len(d.ring)]].rxBase = nil
			case d.chance(0.01): // the successor's base is a twin of the sender's
				if re := d.ends[d.ring[(d.at+1)%len(d.ring)]]; re.rxBase != nil {
					re.rxBase = reorder(re.rxBase, d.rng.Intn(re.rxBase.Table.Len()+1))
				}
			case d.chance(0.01): // the holder's token is a twin of what its base led to
				d.tok = reorder(d.tok, d.rng.Intn(d.tok.Table.Len()+1))
			}
			d.hop()
		}
		if d.deltas < 1000 || d.refused == 0 || d.refusedBy[ErrDeltaDigest] == 0 || d.refusedBy[ErrDeltaBase] == 0 {
			t.Fatalf("seed %d: %d deltas, %d whole, %d refused %v: the faults did not all fire",
				seed, d.deltas, d.whole, d.refused, d.refusedBy)
		}
		t.Logf("seed %d: %d deltas, %d whole tokens, %d refused %v", seed, d.deltas, d.whole, d.refused, d.refusedBy)
	}
}

// TestTokenDeltaWholeIsEmptyBase pins the one-code-path claim: a whole
// token is the delta layout from the empty base, and its bytes are those
// of the stateless layout frame version 3 carried (the hex below is that
// layout's encoding of this token: compacted, one entry ordered away from
// its source, one high-water mark without entries). A delta then costs a
// few bytes per new entry.
func TestTokenDeltaWholeIsEmptyBase(t *testing.T) {
	tok := NewToken(3)
	tok.Epoch, tok.Hops = 2, 40
	for i := 0; i < 12; i++ {
		src := NodeID(i%4 + 1)
		ord := src
		if i == 9 {
			ord = 9
		}
		lo := tok.Table.MaxAssignedLocal(src) + 1
		if _, err := tok.Assign(src, ord, lo, lo+LocalSeq(i%3)); err != nil {
			t.Fatal(err)
		}
	}
	tok.Table.Compact(tok.Table.HorizonForSize(8))
	tok.Table.RestoreHighWater(6, 300)
	const v3 = "031902280801010107020302020303030004030401020701020602090007030107040205010602060306040606ac02"
	if got := hex.EncodeToString(tok.AppendDelta(nil, nil)); got != v3 {
		t.Fatalf("whole token encodes as\n %s\nnot the stateless layout's\n %s", got, v3)
	}

	base := tok.Clone()
	next := tok.Clone()
	next.Hops += 4
	for src := NodeID(1); src <= 4; src++ {
		lo := next.Table.MaxAssignedLocal(src) + 1
		if _, err := next.Assign(src, src, lo, lo+1); err != nil {
			t.Fatal(err)
		}
	}
	next.Table.Compact(next.Table.HorizonForSize(8))
	if !next.DeltaFrom(base) {
		t.Fatal("a compacted, appended later version is not a delta from its base")
	}
	// header 4, base reference 2, digest 8, drop 1, entry count 1, four
	// chained entries of 3, five high-water marks and their count 12.
	if whole, delta := next.WireLen(), next.DeltaLen(base); delta != 40 {
		t.Fatalf("delta of four entries is %d bytes, want 40 (whole token %d)", delta, whole)
	}
}

// TestTokenDeltaFromRefuses lists what DeltaFrom must not accept: the
// sender's half of "refused, never accepted wrong".
func TestTokenDeltaFromRefuses(t *testing.T) {
	base := NewToken(1)
	base.Epoch, base.Hops = 3, 10
	for i := 0; i < 12; i++ {
		src := NodeID(i%3 + 1)
		lo := base.Table.MaxAssignedLocal(src) + 1
		if _, err := base.Assign(src, src, lo, lo); err != nil {
			t.Fatal(err)
		}
	}
	later := func(mut func(t2 *Token)) *Token {
		n := base.Clone()
		n.Hops += 3
		if _, err := n.Assign(1, 1, n.Table.MaxAssignedLocal(1)+1, n.Table.MaxAssignedLocal(1)+1); err != nil {
			t.Fatal(err)
		}
		mut(n)
		return n
	}
	if !later(func(*Token) {}).DeltaFrom(base) {
		t.Fatal("control: a plain successor version refused")
	}
	for name, tok := range map[string]*Token{
		"no base":                 nil,
		"other epoch":             later(func(n *Token) { n.Epoch++ }),
		"other group":             later(func(n *Token) { n.Group++ }),
		"same hop":                later(func(n *Token) { n.Hops = base.Hops }),
		"next went back":          later(func(n *Token) { n.NextGlobalSeq = base.NextGlobalSeq - 1 }),
		"last base entry differs": later(func(n *Token) { n.Table = reorder(n, base.Table.Len()-1).Table }),
		"middle entry differs":    later(func(n *Token) { n.Table = reorder(n, 5).Table }),
		"first entry differs":     later(func(n *Token) { n.Table = reorder(n, 0).Table }),
		"base mark lost": later(func(n *Token) {
			n.Table = reorder(n, -1).Table
			delete(n.Table.maxLocal, 3)
		}),
	} {
		if tok == nil {
			if later(func(*Token) {}).DeltaFrom(nil) {
				t.Errorf("%s: accepted", name)
			}
			continue
		}
		if tok.DeltaFrom(base) {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzTokenDelta builds a base and a later version of it from the input,
// cuts the delta, and checks the round trip: the encoded length is
// DeltaLen, the decoded delta re-encodes to the same bytes and rebuilds
// the later version exactly. The raw input is then thrown at the delta
// decoder twice — as a whole delta, and as the body of a delta that names
// the fuzz-built base correctly, so it reaches Rebuild's table decoding —
// and whatever Rebuild accepts must be a valid table whose own delta from
// that base is exactly those bytes: a hostile delta cannot rebuild into a
// table an honest sender would have encoded differently.
func FuzzTokenDelta(f *testing.F) {
	seed := NewToken(5)
	seed.Epoch, seed.Hops = 1, 3
	for i := 0; i < 30; i++ {
		src := NodeID(i%3 + 1)
		lo := seed.Table.MaxAssignedLocal(src) + 1
		if _, err := seed.Assign(src, src, lo, lo+LocalSeq(i%2)); err != nil {
			f.Fatal(err)
		}
	}
	next := seed.Clone()
	next.Hops += 3
	if _, err := next.Assign(2, 2, next.Table.MaxAssignedLocal(2)+1, next.Table.MaxAssignedLocal(2)+4); err != nil {
		f.Fatal(err)
	}
	next.Table.Compact(10)
	f.Add([]byte{30, 1, 4, 0, 9, 3}, next.AppendDelta(nil, seed))
	f.Add([]byte{0xff, 0x10, 0x33, 7, 7, 7, 7, 7}, []byte{0, 1, 1, 3, 1, 3, 1, 1, 1, 7, 3})
	f.Fuzz(func(t *testing.T, shape, raw []byte) {
		base, later := deltaPair(shape)
		inputs := [][]byte{raw}
		if later.DeltaFrom(base) {
			enc := later.AppendDelta(nil, base)
			if n := later.DeltaLen(base); n != len(enc) {
				t.Fatalf("DeltaLen %d, encoded %d", n, len(enc))
			}
			d, n, err := DecodeDelta(enc)
			if err != nil || n != len(enc) {
				t.Fatalf("decode own delta: n=%d err=%v", n, err)
			}
			got, err := d.Rebuild(base)
			if err != nil {
				t.Fatalf("rebuild own delta: %v", err)
			}
			if !bytes.Equal(got.AppendWire(nil), later.AppendWire(nil)) {
				t.Fatalf("rebuilt %v, want %v", got.Table, later.Table)
			}
			inputs = append(inputs, append(enc[:len(enc)-len(d.body):len(enc)-len(d.body)], raw...))
		}
		for _, in := range inputs {
			checkRawDelta(t, base, in)
		}
	})
}

func checkRawDelta(t *testing.T, base *Token, in []byte) {
	d, n, err := DecodeDelta(in)
	if err != nil {
		return
	}
	if re := d.AppendWire(nil); !bytes.Equal(re, in[:n]) || d.WireLen() != n {
		t.Fatalf("delta re-encode differs:\n in  %x\n out %x", in[:n], re)
	}
	got, err := d.Rebuild(base)
	if err != nil {
		if !errors.Is(err, ErrWire) && !errors.Is(err, ErrDeltaBase) && !errors.Is(err, ErrDeltaDigest) {
			t.Fatalf("unclassified refusal: %v", err)
		}
		return
	}
	if err := got.Table.Validate(); err != nil {
		t.Fatalf("accepted an invalid table: %v", err)
	}
	if !got.DeltaFrom(base) {
		t.Fatal("rebuilt token is not a delta from its own base")
	}
	if re := got.AppendDelta(nil, base); !bytes.Equal(re, in[:n]) {
		t.Fatalf("accepted a non-canonical delta:\n in  %x\n out %x", in[:n], re)
	}
}

// deltaPair builds a base token and a later version of it from fuzz
// bytes: assignments on both sides of the cut, compaction, a mark for a
// source without entries, and sometimes a header that disqualifies it.
func deltaPair(b []byte) (base, later *Token) {
	i := 0
	next := func() int {
		if i >= len(b) {
			return 0
		}
		i++
		return int(b[i-1])
	}
	assign := func(tok *Token, n int) {
		for j := 0; j < n; j++ {
			src := NodeID(next()%5 + 1)
			ord := src
			if next()%4 == 0 {
				ord = src + 1
			}
			lo := tok.Table.MaxAssignedLocal(src) + 1
			if next()%8 == 0 {
				lo += 100 // the source's earlier runs went to another lineage
			}
			_, _ = tok.Assign(src, ord, lo, lo+LocalSeq(next()%3))
		}
	}
	base = NewToken(GroupID(next() % 3))
	base.Epoch, base.Hops = uint64(next()%3), uint64(next())
	assign(base, next()%40)
	if k := next() % 16; k > 0 {
		base.Table.Compact(base.Table.HorizonForSize(k))
	}
	later = base.Clone()
	later.Hops += uint64(next()%4 + 1)
	assign(later, next()%8)
	if k := next() % 24; k > 0 {
		later.Table.Compact(later.Table.HorizonForSize(k))
	}
	if next()%16 == 0 {
		later.Table.RestoreHighWater(NodeID(next()+10), LocalSeq(next()+1))
	}
	switch next() % 32 {
	case 0:
		later.Epoch++
	case 1:
		later = reorder(later, next()%(later.Table.Len()+1))
	}
	return base, later
}
