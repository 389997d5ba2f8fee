package seq

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRangeEmpty(t *testing.T) {
	cases := []struct {
		r    Range
		want bool
	}{
		{Range{}, true},
		{Range{Min: 0, Max: 5}, true},
		{Range{Min: 3, Max: 2}, true},
		{Range{Min: 1, Max: 1}, false},
		{Range{Min: 5, Max: 9}, false},
	}
	for _, c := range cases {
		if got := c.r.Empty(); got != c.want {
			t.Errorf("%v.Empty() = %v, want %v", c.r, got, c.want)
		}
	}
}

func TestRangeLen(t *testing.T) {
	if got := (Range{Min: 3, Max: 7}).Len(); got != 5 {
		t.Fatalf("Len = %d, want 5", got)
	}
	if got := (Range{}).Len(); got != 0 {
		t.Fatalf("empty Len = %d, want 0", got)
	}
}

func TestRangeContains(t *testing.T) {
	r := Range{Min: 10, Max: 20}
	for _, v := range []uint64{10, 15, 20} {
		if !r.Contains(v) {
			t.Errorf("Contains(%d) = false", v)
		}
	}
	for _, v := range []uint64{9, 21, 0} {
		if r.Contains(v) {
			t.Errorf("Contains(%d) = true", v)
		}
	}
	if (Range{}).Contains(0) {
		t.Error("empty range contains 0")
	}
}

func TestRangeOverlaps(t *testing.T) {
	a := Range{Min: 5, Max: 10}
	cases := []struct {
		b    Range
		want bool
	}{
		{Range{Min: 1, Max: 4}, false},
		{Range{Min: 1, Max: 5}, true},
		{Range{Min: 10, Max: 12}, true},
		{Range{Min: 11, Max: 12}, false},
		{Range{Min: 6, Max: 9}, true},
		{Range{}, false},
	}
	for _, c := range cases {
		if got := a.Overlaps(c.b); got != c.want {
			t.Errorf("%v.Overlaps(%v) = %v, want %v", a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(a); got != c.want {
			t.Errorf("overlap not symmetric for %v", c.b)
		}
	}
}

func TestPairValid(t *testing.T) {
	good := Pair{SourceNode: 1, OrderingNode: 2, Local: Range{1, 5}, Global: Range{10, 14}}
	if !good.Valid() {
		t.Fatal("good pair invalid")
	}
	bad := []Pair{
		{SourceNode: None, OrderingNode: 2, Local: Range{1, 5}, Global: Range{10, 14}},
		{SourceNode: 1, OrderingNode: None, Local: Range{1, 5}, Global: Range{10, 14}},
		{SourceNode: 1, OrderingNode: 2, Local: Range{}, Global: Range{10, 14}},
		{SourceNode: 1, OrderingNode: 2, Local: Range{1, 5}, Global: Range{10, 15}}, // length mismatch
	}
	for i, p := range bad {
		if p.Valid() {
			t.Errorf("bad pair %d reported valid: %v", i, p)
		}
	}
}

func TestPairGlobalFor(t *testing.T) {
	p := Pair{SourceNode: 1, OrderingNode: 2, Local: Range{4, 8}, Global: Range{100, 104}}
	g, ok := p.GlobalFor(4)
	if !ok || g != 100 {
		t.Fatalf("GlobalFor(4) = %d,%v", g, ok)
	}
	g, ok = p.GlobalFor(8)
	if !ok || g != 104 {
		t.Fatalf("GlobalFor(8) = %d,%v", g, ok)
	}
	if _, ok := p.GlobalFor(3); ok {
		t.Fatal("GlobalFor(3) should miss")
	}
	if _, ok := p.GlobalFor(9); ok {
		t.Fatal("GlobalFor(9) should miss")
	}
}

func TestWTSNPAppendAndResolve(t *testing.T) {
	w := NewWTSNP()
	err := w.Append(Pair{SourceNode: 1, OrderingNode: 9, Local: Range{1, 3}, Global: Range{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Append(Pair{SourceNode: 2, OrderingNode: 9, Local: Range{1, 2}, Global: Range{4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	g, ord, ok := w.GlobalFor(1, 2)
	if !ok || g != 2 || ord != 9 {
		t.Fatalf("GlobalFor(1,2) = %d,%v,%v", g, ord, ok)
	}
	g, _, ok = w.GlobalFor(2, 2)
	if !ok || g != 5 {
		t.Fatalf("GlobalFor(2,2) = %d,%v", g, ok)
	}
	if _, _, ok := w.GlobalFor(1, 4); ok {
		t.Fatal("unassigned local resolved")
	}
	if _, _, ok := w.GlobalFor(3, 1); ok {
		t.Fatal("unknown source resolved")
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWTSNPRejectsGlobalOverlap(t *testing.T) {
	w := NewWTSNP()
	if err := w.Append(Pair{SourceNode: 1, OrderingNode: 9, Local: Range{1, 5}, Global: Range{1, 5}}); err != nil {
		t.Fatal(err)
	}
	err := w.Append(Pair{SourceNode: 2, OrderingNode: 9, Local: Range{1, 2}, Global: Range{5, 6}})
	if err == nil {
		t.Fatal("overlapping global range accepted")
	}
}

func TestWTSNPRejectsLocalOverlapSameSource(t *testing.T) {
	w := NewWTSNP()
	if err := w.Append(Pair{SourceNode: 1, OrderingNode: 9, Local: Range{1, 5}, Global: Range{1, 5}}); err != nil {
		t.Fatal(err)
	}
	err := w.Append(Pair{SourceNode: 1, OrderingNode: 9, Local: Range{5, 6}, Global: Range{6, 7}})
	if err == nil {
		t.Fatal("overlapping local range accepted")
	}
}

func TestWTSNPRejectsGapAfterHighWater(t *testing.T) {
	w := NewWTSNP()
	if err := w.Append(Pair{SourceNode: 1, OrderingNode: 9, Local: Range{1, 5}, Global: Range{1, 5}}); err != nil {
		t.Fatal(err)
	}
	err := w.Append(Pair{SourceNode: 1, OrderingNode: 9, Local: Range{7, 8}, Global: Range{6, 7}})
	if err == nil {
		t.Fatal("gapped local range accepted")
	}
}

func TestWTSNPCompactKeepsHighWater(t *testing.T) {
	w := NewWTSNP()
	if err := w.Append(Pair{SourceNode: 1, OrderingNode: 9, Local: Range{1, 5}, Global: Range{1, 5}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Pair{SourceNode: 1, OrderingNode: 9, Local: Range{6, 8}, Global: Range{6, 8}}); err != nil {
		t.Fatal(err)
	}
	removed := w.Compact(5)
	if removed != 1 || w.Len() != 1 {
		t.Fatalf("Compact removed %d, len=%d", removed, w.Len())
	}
	// The compacted entry's locals must not be assignable again.
	err := w.Append(Pair{SourceNode: 1, OrderingNode: 9, Local: Range{3, 4}, Global: Range{20, 21}})
	if err == nil {
		t.Fatal("re-assignment after compaction accepted")
	}
	if w.MaxAssignedLocal(1) != 8 {
		t.Fatalf("high-water = %d, want 8", w.MaxAssignedLocal(1))
	}
}

// TestWTSNPCompactPrefixAllocatesNothing: compacting an unshared table
// whose sources were assigned in order drops a prefix of every list it
// touches, so it allocates nothing — with or without a report callback.
func TestWTSNPCompactPrefixAllocatesNothing(t *testing.T) {
	w := buildToken(t, 4096, 8).Table
	var h GlobalSeq
	reported := 0
	report := func(NodeID, LocalSeq) { reported++ }
	for _, fn := range []func(NodeID, LocalSeq){nil, report} {
		allocs := testing.AllocsPerRun(50, func() {
			before := w.Len()
			h += 4 * 8 // eight 4-global entries, one per source
			if w.CompactFunc(h, fn) != 8 || w.Len() != before-8 {
				t.Fatalf("Compact(%d) did not drop eight entries", h)
			}
		})
		if allocs != 0 {
			t.Fatalf("prefix compaction allocated %.1f times per call", allocs)
		}
	}
	if reported != 51*8 {
		t.Fatalf("callback reported %d sources, want %d", reported, 51*8)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestWTSNPDrainRefillReusesChunks: a table compacted empty after every
// assignment — a cumulative table right at the delivery front — keeps
// writing into its tail chunks instead of allocating two fresh chunks
// (global list and source list) per assignment.
func TestWTSNPDrainRefillReusesChunks(t *testing.T) {
	w := NewWTSNP()
	var l LocalSeq
	allocs := testing.AllocsPerRun(1000, func() {
		l++
		g := uint64(l)
		if err := w.Append(Pair{SourceNode: 1, OrderingNode: 1, Local: Range{uint64(l), uint64(l)}, Global: Range{g, g}}); err != nil {
			t.Fatal(err)
		}
		if w.Compact(GlobalSeq(g)) != 1 || w.Len() != 0 {
			t.Fatalf("Compact(%d) did not drain the table", g)
		}
	})
	if allocs != 0 {
		t.Fatalf("drain and refill allocated %.1f times per assignment", allocs)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWTSNPClone(t *testing.T) {
	w := NewWTSNP()
	if err := w.Append(Pair{SourceNode: 1, OrderingNode: 9, Local: Range{1, 5}, Global: Range{1, 5}}); err != nil {
		t.Fatal(err)
	}
	c := w.Clone()
	if err := c.Append(Pair{SourceNode: 1, OrderingNode: 9, Local: Range{6, 7}, Global: Range{6, 7}}); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 1 || c.Len() != 2 {
		t.Fatalf("clone aliases original: %d %d", w.Len(), c.Len())
	}
	if w.MaxAssignedLocal(1) != 5 {
		t.Fatal("clone shares high-water map")
	}
}

func TestWTSNPCloneIsolationBothDirections(t *testing.T) {
	w := NewWTSNP()
	for i := uint64(0); i < 3; i++ {
		if err := w.Append(Pair{SourceNode: 1, OrderingNode: 9, Local: Range{1 + 2*i, 2 + 2*i}, Global: Range{1 + 2*i, 2 + 2*i}}); err != nil {
			t.Fatal(err)
		}
	}
	snap := w.Clone()
	// Mutating the original must not leak into the clone through the
	// shared storage...
	if err := w.Append(Pair{SourceNode: 1, OrderingNode: 9, Local: Range{7, 8}, Global: Range{7, 8}}); err != nil {
		t.Fatal(err)
	}
	if w.Compact(2) != 1 {
		t.Fatal("compact on original")
	}
	if snap.Len() != 3 || snap.MaxAssignedLocal(1) != 6 {
		t.Fatalf("clone observed original's mutations: len=%d hw=%d", snap.Len(), snap.MaxAssignedLocal(1))
	}
	// ...and vice versa.
	sibling := snap.Clone()
	if err := snap.Insert(Pair{SourceNode: 2, OrderingNode: 9, Local: Range{5, 5}, Global: Range{100, 100}}); err != nil {
		t.Fatal(err)
	}
	if sibling.Len() != 3 || sibling.MaxAssignedLocal(2) != 0 {
		t.Fatal("sibling observed snap's mutations")
	}
	if w.Len() != 3 { // 4 entries - 1 compacted
		t.Fatalf("original len = %d, want 3", w.Len())
	}
	for _, tab := range []*WTSNP{w, snap, sibling} {
		if err := tab.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWTSNPInsertSkipsContiguity(t *testing.T) {
	w := NewWTSNP()
	// A compacted table's surviving run need not start at local 1.
	if err := w.Insert(Pair{SourceNode: 1, OrderingNode: 9, Local: Range{57, 60}, Global: Range{57, 60}}); err != nil {
		t.Fatal(err)
	}
	if w.MaxAssignedLocal(1) != 60 {
		t.Fatalf("high-water = %d, want 60", w.MaxAssignedLocal(1))
	}
	// Overlaps are still rejected.
	if err := w.Insert(Pair{SourceNode: 1, OrderingNode: 9, Local: Range{60, 61}, Global: Range{80, 81}}); err == nil {
		t.Fatal("local overlap accepted")
	}
	if err := w.Insert(Pair{SourceNode: 2, OrderingNode: 9, Local: Range{1, 2}, Global: Range{59, 60}}); err == nil {
		t.Fatal("global overlap accepted")
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWTSNPAbsorbDelta(t *testing.T) {
	tok := NewToken(1)
	assign := NewWTSNP()
	if _, err := tok.Assign(1, 9, 1, 4); err != nil {
		t.Fatal(err)
	}
	if added, err := assign.Absorb(tok.Table); err != nil || added != 1 {
		t.Fatalf("first absorb: %d, %v", added, err)
	}
	// Re-absorbing the same table is a no-op (watermark skip).
	if added, err := assign.Absorb(tok.Table); err != nil || added != 0 {
		t.Fatalf("re-absorb: %d, %v", added, err)
	}
	// The node compacts its own table; absorbed entries below the
	// watermark must not reappear.
	assign.Compact(4)
	if added, _ := assign.Absorb(tok.Table); added != 0 {
		t.Fatal("compacted entry re-absorbed")
	}
	// Only the delta beyond the watermark is added.
	if _, err := tok.Assign(2, 9, 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := tok.Assign(1, 9, 5, 5); err != nil {
		t.Fatal(err)
	}
	if added, err := assign.Absorb(tok.Table); err != nil || added != 2 {
		t.Fatalf("delta absorb: %d, %v", added, err)
	}
	if g, _, ok := assign.GlobalFor(1, 5); !ok || g != 7 {
		t.Fatalf("GlobalFor(1,5) = %d,%v", g, ok)
	}
	if err := assign.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWTSNPEntriesSortedByGlobal(t *testing.T) {
	w := NewWTSNP()
	if err := w.Insert(Pair{SourceNode: 1, OrderingNode: 9, Local: Range{10, 11}, Global: Range{50, 51}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Insert(Pair{SourceNode: 2, OrderingNode: 9, Local: Range{1, 1}, Global: Range{7, 7}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Insert(Pair{SourceNode: 1, OrderingNode: 9, Local: Range{1, 2}, Global: Range{20, 21}}); err != nil {
		t.Fatal(err)
	}
	es := w.Entries()
	for i := 1; i < len(es); i++ {
		if es[i-1].Global.Min >= es[i].Global.Min {
			t.Fatalf("entries unsorted: %v", es)
		}
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTokenAssign(t *testing.T) {
	tok := NewToken(7)
	g, err := tok.Assign(1, 9, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.Min != 1 || g.Max != 4 {
		t.Fatalf("assigned %v, want [1,4]", g)
	}
	if tok.NextGlobalSeq != 5 {
		t.Fatalf("NextGlobalSeq = %d, want 5", tok.NextGlobalSeq)
	}
	g, err = tok.Assign(2, 10, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Min != 5 || g.Max != 5 {
		t.Fatalf("second assign %v, want [5,5]", g)
	}
	// Empty assignment is a no-op.
	g, err = tok.Assign(1, 9, 5, 4)
	if err != nil || !g.Empty() {
		t.Fatalf("empty assign = %v, %v", g, err)
	}
	if err := tok.Table.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTokenAssignContiguityPerSource(t *testing.T) {
	tok := NewToken(7)
	if _, err := tok.Assign(1, 9, 1, 4); err != nil {
		t.Fatal(err)
	}
	// Next run for source 1 must start at 5.
	if _, err := tok.Assign(1, 9, 6, 8); err == nil {
		t.Fatal("gapped per-source assignment accepted")
	}
	if _, err := tok.Assign(1, 9, 5, 8); err != nil {
		t.Fatal(err)
	}
}

func TestTokenClone(t *testing.T) {
	tok := NewToken(7)
	if _, err := tok.Assign(1, 9, 1, 4); err != nil {
		t.Fatal(err)
	}
	c := tok.Clone()
	if _, err := c.Assign(1, 9, 5, 6); err != nil {
		t.Fatal(err)
	}
	if tok.NextGlobalSeq != 5 || c.NextGlobalSeq != 7 {
		t.Fatalf("clone aliases: %d %d", tok.NextGlobalSeq, c.NextGlobalSeq)
	}
	if tok.Table.Len() != 1 || c.Table.Len() != 2 {
		t.Fatal("clone aliases table")
	}
	var nilTok *Token
	if nilTok.Clone() != nil {
		t.Fatal("nil Clone should be nil")
	}
}

func TestTokenSupersedes(t *testing.T) {
	a := NewToken(1)
	b := NewToken(1)
	a.NextGlobalSeq = 10
	b.NextGlobalSeq = 5
	if !a.Supersedes(b) || b.Supersedes(a) {
		t.Fatal("higher NextGlobalSeq should supersede")
	}
	b.Epoch = 1
	if a.Supersedes(b) || !b.Supersedes(a) {
		t.Fatal("higher epoch should supersede regardless of seq")
	}
	if !a.Supersedes(nil) {
		t.Fatal("token should supersede nil")
	}
	var nilTok *Token
	if nilTok.Supersedes(a) {
		t.Fatal("nil should not supersede")
	}
}

func TestStringForms(t *testing.T) {
	if None.String() != "·" {
		t.Fatal("None string")
	}
	if NodeID(3).String() != "n3" {
		t.Fatal("NodeID string")
	}
	if HostID(4).String() != "mh4" {
		t.Fatal("HostID string")
	}
	if (Range{1, 2}).String() != "[1,2]" || (Range{}).String() != "[]" {
		t.Fatal("Range string")
	}
	tok := NewToken(3)
	if !strings.Contains(tok.String(), "g=3") {
		t.Fatalf("token string: %s", tok)
	}
	var nilTok *Token
	if nilTok.String() != "Token(nil)" {
		t.Fatal("nil token string")
	}
	w := NewWTSNP()
	_ = w.Append(Pair{SourceNode: 1, OrderingNode: 2, Local: Range{1, 1}, Global: Range{1, 1}})
	if !strings.Contains(w.String(), "src=n1") {
		t.Fatalf("wtsnp string: %s", w)
	}
}

// Property: any sequence of Assign calls with contiguous per-source local
// ranges produces a table that validates, partitions [1, Next), and is an
// order-preserving per-source map.
func TestQuickTokenAssignInvariants(t *testing.T) {
	f := func(runs []struct {
		Src  uint8
		Size uint8
	}) bool {
		tok := NewToken(1)
		next := map[NodeID]LocalSeq{}
		total := uint64(0)
		for _, r := range runs {
			src := NodeID(r.Src%8 + 1)
			n := uint64(r.Size%5 + 1)
			lo := next[src] + 1
			hi := lo + LocalSeq(n) - 1
			g, err := tok.Assign(src, 99, lo, hi)
			if err != nil {
				return false
			}
			if g.Len() != n {
				return false
			}
			next[src] = hi
			total += n
		}
		if uint64(tok.NextGlobalSeq) != total+1 {
			return false
		}
		if err := tok.Table.Validate(); err != nil {
			return false
		}
		// Every global in [1,total] resolves exactly once across sources.
		seen := make(map[GlobalSeq]bool)
		for src, hw := range next {
			for l := LocalSeq(1); l <= hw; l++ {
				g, _, ok := tok.Table.GlobalFor(src, l)
				if !ok || seen[g] {
					return false
				}
				seen[g] = true
			}
		}
		return uint64(len(seen)) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: per-source mapping is strictly increasing in local order.
func TestQuickOrderPreserving(t *testing.T) {
	f := func(sizes []uint8) bool {
		tok := NewToken(1)
		src := NodeID(1)
		var lo LocalSeq = 1
		for _, s := range sizes {
			n := LocalSeq(s%4 + 1)
			if _, err := tok.Assign(src, 5, lo, lo+n-1); err != nil {
				return false
			}
			lo += n
		}
		var prev GlobalSeq
		for l := LocalSeq(1); l < lo; l++ {
			g, _, ok := tok.Table.GlobalFor(src, l)
			if !ok || g <= prev {
				return false
			}
			prev = g
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
