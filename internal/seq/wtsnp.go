package seq

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// WTSNP is the ordering token's Working Table of Sequence Number Pairs
// (paper §4.1). It records, for every source, which runs of local sequence
// numbers have been assigned which runs of global sequence numbers.
//
// Invariants maintained (and checked by Validate):
//   - global ranges of distinct entries never overlap;
//   - local ranges of entries with the same SourceNode never overlap;
//   - every entry is Valid (equal-length, order-preserving runs);
//   - entries is sorted by global range, bySource by local range.
//
// The table is indexed two ways: entries holds all pairs sorted by global
// range (disjointness makes Global.Max sorted too), and bySource holds the
// same pairs per source sorted by local range. Both orders admit binary
// search, so GlobalFor, Append overlap checks, and Absorb run in O(log n)
// per pair instead of scanning the table.
//
// Both indexes are chunked pair lists (see chunk.go): immutable fixed-size
// chunks referenced from small pointer spines, shared structurally between
// clones. Clone is O(1); the first mutation after a clone copies the two
// small per-source maps and, per touched list, the spine and the tail
// chunk — never the full entry array. A token hop therefore costs a
// constant number of chunks in bytes, independent of table size.
//
// To bound the token size on the wire, entries older than a horizon can be
// compacted away with Compact once their messages are known to be ordered
// everywhere; the table keeps per-source high-water marks so duplicate
// assignment is still detected after compaction.
type WTSNP struct {
	entries  pairList            // all pairs, sorted by Global.Min
	bySource map[NodeID]pairList // per-source pairs, sorted by Local.Min
	// maxLocal tracks the highest local sequence number ever assigned
	// per source, surviving compaction.
	maxLocal map[NodeID]LocalSeq
	// absorbed is the delta-absorb watermark: the highest Global.Max this
	// table has ever recorded (via Append, Insert, or Absorb). Within one
	// token lineage global numbers only grow, so Absorb needs to examine
	// only the entries above this mark. It survives Compact.
	absorbed GlobalSeq
	// digest is the table's running digest (delta.go): the sum of
	// pairDigest over the entries and markDigest over the high-water
	// marks, kept current by every mutation so a token's digest costs
	// O(1) however large the table is.
	digest uint64
	// wireLen caches the encoded size of the entries and high-water pairs
	// (see wire.go). Tail appends keep it current in O(1); Compact and
	// interior inserts set it to -1 and WireLen recomputes on demand.
	wireLen int32
	// shared marks the maps, spines, and chunks as aliased with a clone;
	// the first mutation forks them (see fork).
	shared bool
}

// NewWTSNP returns an empty table.
func NewWTSNP() *WTSNP {
	return &WTSNP{
		bySource: make(map[NodeID]pairList),
		maxLocal: make(map[NodeID]LocalSeq),
	}
}

// Clone returns an independent copy in O(1). Tokens are copied whenever
// they are stored in a node's Old/NewOrderingToken slots, so aliasing
// would corrupt recovery. All storage is shared copy-on-write: both sides
// are marked shared, and whichever side mutates first forks its maps and
// re-owns the chunk lists it touches (see fork), leaving the common
// storage untouched.
func (w *WTSNP) Clone() *WTSNP {
	w.shared = true
	c := *w
	return &c
}

// fork un-shares the table's storage before a mutation. The maps are
// copied and every chunk list loses tail ownership, so the next append on
// a list copies its pointer spine and tail chunk instead of writing into
// storage a clone can still see. O(#sources), independent of table size.
func (w *WTSNP) fork() {
	if !w.shared {
		return
	}
	w.entries.priv = false
	bs := make(map[NodeID]pairList, len(w.bySource))
	for k, v := range w.bySource {
		v.priv = false
		bs[k] = v
	}
	w.bySource = bs
	ml := make(map[NodeID]LocalSeq, len(w.maxLocal))
	for k, v := range w.maxLocal {
		ml[k] = v
	}
	w.maxLocal = ml
	w.shared = false
}

// Len returns the number of entries.
func (w *WTSNP) Len() int { return w.entries.len() }

// Entries returns a copy of the entries, ordered by global range.
func (w *WTSNP) Entries() []Pair {
	return w.entries.appendTo(make([]Pair, 0, w.entries.len()))
}

// ForEachEntry calls fn for every entry in global order, without
// materializing the table.
func (w *WTSNP) ForEachEntry(fn func(Pair)) {
	for i, n := 0, w.entries.len(); i < n; i++ {
		fn(w.entries.at(i))
	}
}

// MaxAssignedLocal returns the highest local sequence number from src that
// has ever been assigned a global number (0 if none).
func (w *WTSNP) MaxAssignedLocal(src NodeID) LocalSeq { return w.maxLocal[src] }

// HighWater records one source's highest assigned local sequence number.
type HighWater struct {
	Source NodeID
	Max    LocalSeq
}

// HighWaters returns the per-source high-water marks, sorted by source
// for deterministic encoding. They must travel with the entries on the
// wire: compaction may have removed the entries that carried a mark, and
// without it a rebuilt table cannot detect duplicate assignment.
func (w *WTSNP) HighWaters() []HighWater {
	out := make([]HighWater, 0, len(w.maxLocal))
	for src, hw := range w.maxLocal {
		out = append(out, HighWater{Source: src, Max: hw})
	}
	slices.SortFunc(out, func(a, b HighWater) int { return cmp.Compare(a.Source, b.Source) })
	return out
}

// RestoreHighWater raises src's high-water mark to at least hw (used when
// rebuilding a table from the wire).
func (w *WTSNP) RestoreHighWater(src NodeID, hw LocalSeq) {
	if w.maxLocal[src] >= hw {
		return
	}
	w.fork()
	w.setHighWater(src, hw)
}

// setHighWater stores src's raised mark and keeps the cached wire size in
// step with it.
func (w *WTSNP) setHighWater(src NodeID, hw LocalSeq) {
	old, ok := w.maxLocal[src]
	if ok {
		w.digest -= markDigest(src, old)
	}
	w.digest += markDigest(src, hw)
	if w.wireLen >= 0 {
		if ok {
			w.wireLen += int32(uvarintLen(uint64(hw)) - uvarintLen(uint64(old)))
		} else {
			w.wireLen += int32(uvarintLen(uint64(src)) + uvarintLen(uint64(hw)))
		}
	}
	w.maxLocal[src] = hw
}

// globalPos returns the insertion index for a global range starting at
// min: the first entry whose Global.Min exceeds min.
func (w *WTSNP) globalPos(min uint64) int {
	return sort.Search(w.entries.len(), func(i int) bool { return w.entries.at(i).Global.Min > min })
}

// localPos returns the insertion index in src's list for a local range
// starting at min.
func localPos(s *pairList, min uint64) int {
	return sort.Search(s.len(), func(i int) bool { return s.at(i).Local.Min > min })
}

// globalConflict returns the existing entry whose global range overlaps g,
// given g's insertion index i.
func (w *WTSNP) globalConflict(i int, g Range) (Pair, bool) {
	if i > 0 {
		if e := w.entries.at(i - 1); e.Global.Max >= g.Min {
			return e, true
		}
	}
	if i < w.entries.len() {
		if e := w.entries.at(i); e.Global.Min <= g.Max {
			return e, true
		}
	}
	return Pair{}, false
}

// localConflict returns the entry in s whose local range overlaps l, given
// l's insertion index j.
func localConflict(s *pairList, j int, l Range) (Pair, bool) {
	if j > 0 {
		if e := s.at(j - 1); e.Local.Max >= l.Min {
			return e, true
		}
	}
	if j < s.len() {
		if e := s.at(j); e.Local.Min <= l.Max {
			return e, true
		}
	}
	return Pair{}, false
}

// insertAt adds p at global index i and at index j of its source's list,
// maintaining both indexes, the high-water marks, the absorb watermark,
// and the cached wire size.
func (w *WTSNP) insertAt(i, j int, p Pair) {
	w.fork()
	s := w.bySource[p.SourceNode]
	if w.wireLen >= 0 {
		if i == w.entries.len() {
			// A global-tail append chains from the entries already
			// present, exactly as the encoder's walk will see them.
			var prevMax, srcMax uint64
			if i > 0 {
				prevMax = w.entries.at(i - 1).Global.Max
			}
			if m := s.len(); m > 0 {
				srcMax = s.at(m - 1).Local.Max
			}
			w.wireLen += int32(entryWireLen(p, prevMax, srcMax))
		} else {
			w.wireLen = -1
		}
	}
	w.entries.insert(i, p)
	s.insert(j, p)
	w.bySource[p.SourceNode] = s
	w.digest += pairDigest(p)
	if hw := w.maxLocal[p.SourceNode]; LocalSeq(p.Local.Max) > hw {
		w.setHighWater(p.SourceNode, LocalSeq(p.Local.Max))
	}
	if g := GlobalSeq(p.Global.Max); g > w.absorbed {
		w.absorbed = g
	}
}

// Append adds an assignment pair. It returns an error if the pair is
// malformed, overlaps an existing global range, re-assigns local numbers
// already assigned for the same source, or skips local numbers (the
// ordering algorithm always assigns contiguously from the last high-water
// mark).
func (w *WTSNP) Append(p Pair) error {
	if !p.Valid() {
		return fmt.Errorf("wtsnp: invalid pair %v", p)
	}
	if hw := w.maxLocal[p.SourceNode]; uint64(hw) >= p.Local.Min {
		return fmt.Errorf("wtsnp: local range %v at or below high-water %d for %v", p.Local, hw, p.SourceNode)
	} else if uint64(hw)+1 != p.Local.Min {
		return fmt.Errorf("wtsnp: local range %v skips numbers after high-water %d for %v", p.Local, hw, p.SourceNode)
	}
	return w.Insert(p)
}

// Insert adds an assignment pair without requiring per-source contiguity.
// A table rebuilt from the wire may have had its older entries compacted
// away, so the surviving runs need not start at the high-water mark.
// Overlap invariants are still enforced.
//
// A pair that lies beyond the last entry both globally and in its source's
// local order — every Assign, and every entry of a decoded token whose
// sources' runs are monotone — is appended after two O(1) comparisons;
// anything else takes the binary-search path (insertSearch). Both enforce
// the same invariants.
func (w *WTSNP) Insert(p Pair) error {
	if !p.Valid() {
		return fmt.Errorf("wtsnp: invalid pair %v", p)
	}
	s := w.bySource[p.SourceNode]
	n, m := w.entries.len(), s.len()
	if (n == 0 || w.entries.at(n-1).Global.Max < p.Global.Min) &&
		(m == 0 || s.at(m-1).Local.Max < p.Local.Min) {
		w.insertAt(n, m, p)
		return nil
	}
	return w.insertSearch(p)
}

// insertSearch is Insert without the in-order shortcut: it locates an
// already validated p in both indexes by binary search and rejects
// overlaps with either neighbour.
func (w *WTSNP) insertSearch(p Pair) error {
	i := w.globalPos(p.Global.Min)
	if e, ok := w.globalConflict(i, p.Global); ok {
		return fmt.Errorf("wtsnp: global range %v overlaps existing %v", p.Global, e.Global)
	}
	s := w.bySource[p.SourceNode]
	j := localPos(&s, p.Local.Min)
	if e, ok := localConflict(&s, j, p.Local); ok {
		return fmt.Errorf("wtsnp: local range %v overlaps existing %v for %v", p.Local, e.Local, p.SourceNode)
	}
	w.insertAt(i, j, p)
	return nil
}

// GlobalFor resolves the global sequence number assigned to (src, l).
func (w *WTSNP) GlobalFor(src NodeID, l LocalSeq) (GlobalSeq, NodeID, bool) {
	s := w.bySource[src]
	if j := localPos(&s, uint64(l)); j > 0 {
		e := s.at(j - 1)
		if g, ok := e.GlobalFor(l); ok {
			return g, e.OrderingNode, true
		}
	}
	return 0, None, false
}

// SourceForGlobal finds the assignment covering global number g and
// returns its source and local sequence number. It scans the entries
// (repair paths only — never the ordering hot path).
func (w *WTSNP) SourceForGlobal(g GlobalSeq) (src NodeID, l LocalSeq, ok bool) {
	w.ForEachEntry(func(e Pair) {
		if ok || uint64(g) < e.Global.Min || uint64(g) > e.Global.Max {
			return
		}
		src = e.SourceNode
		l = LocalSeq(e.Local.Min + (uint64(g) - e.Global.Min))
		ok = true
	})
	return src, l, ok
}

// Absorb merges entries from another table (a received token's WTSNP)
// into this one, skipping entries already known. Unlike Append it does not
// require per-source contiguity — the node may have compacted older
// entries away — but still rejects conflicting overlaps, returning the
// first error and absorbing the rest. It returns how many entries were
// added.
//
// Absorb is delta-based: global numbers within a token lineage only grow,
// so every entry at or below the absorb watermark was recorded by an
// earlier Absorb (or deliberately rejected) and is skipped wholesale; only
// the suffix of other's table above the watermark is examined.
func (w *WTSNP) Absorb(other *WTSNP) (int, error) {
	added := 0
	var firstErr error
	n := other.entries.len()
	start := sort.Search(n, func(i int) bool {
		return other.entries.at(i).Global.Min > uint64(w.absorbed)
	})
	for idx := start; idx < n; idx++ {
		p := other.entries.at(idx)
		if !p.Valid() {
			continue
		}
		if g, _, known := w.GlobalFor(p.SourceNode, LocalSeq(p.Local.Min)); known {
			if g != GlobalSeq(p.Global.Min) && firstErr == nil {
				firstErr = fmt.Errorf("wtsnp: conflicting assignment for %v local %d: %d vs %d",
					p.SourceNode, p.Local.Min, g, p.Global.Min)
			}
			continue
		}
		i := w.globalPos(p.Global.Min)
		_, gc := w.globalConflict(i, p.Global)
		s := w.bySource[p.SourceNode]
		j := localPos(&s, p.Local.Min)
		_, lc := localConflict(&s, j, p.Local)
		if gc || lc {
			if firstErr == nil {
				firstErr = fmt.Errorf("wtsnp: entry %v conflicts during absorb", p)
			}
			continue
		}
		w.insertAt(i, j, p)
		added++
	}
	return added, firstErr
}

// Compact drops entries whose entire global range lies at or below
// horizon. High-water marks and the absorb watermark are retained. It
// returns the number of entries removed.
func (w *WTSNP) Compact(horizon GlobalSeq) int { return w.CompactFunc(horizon, nil) }

// compactedRun counts one source's entries in a compacted prefix.
type compactedRun struct {
	src  NodeID
	n    int    // entries of src dropped
	maxL uint64 // highest Local.Max among them
}

// CompactFunc is Compact that also calls dropped, when non-nil, once per
// source it removed entries of, with the highest local sequence number
// among them.
//
// Its cost is O(dropped), not O(table): the removed entries are a prefix
// of the global order, and a source whose runs were assigned in
// increasing order (every Append) loses a prefix of its own list too, so
// both lists only advance past the dropped pairs and keep sharing their
// surviving chunks. Only a source whose dropped entries are not a prefix
// of its list — possible after out-of-order Inserts — is rebuilt.
func (w *WTSNP) CompactFunc(horizon GlobalSeq, dropped func(src NodeID, maxLocal LocalSeq)) int {
	n := w.entries.len()
	if n == 0 || GlobalSeq(w.entries.at(0).Global.Max) > horizon {
		return 0
	}
	// Disjoint sorted global ranges mean Global.Max is sorted too, so the
	// removable entries are exactly a prefix.
	idx := sort.Search(n, func(i int) bool {
		return GlobalSeq(w.entries.at(i).Global.Max) > horizon
	})
	w.fork()
	w.wireLen = -1
	// A handful of sources share a table, so a linear scan of a small
	// stack array finds each one's count without allocating.
	var buf [8]compactedRun
	touched := buf[:0]
	for i := 0; i < idx; i++ {
		e := w.entries.at(i)
		w.digest -= pairDigest(e)
		k := 0
		for k < len(touched) && touched[k].src != e.SourceNode {
			k++
		}
		if k == len(touched) {
			touched = append(touched, compactedRun{src: e.SourceNode})
		}
		touched[k].n++
		touched[k].maxL = max(touched[k].maxL, e.Local.Max)
	}
	w.entries.dropPrefix(idx)
	for _, t := range touched {
		s := w.bySource[t.src]
		if isGlobalPrefix(&s, t.n, horizon) {
			s.dropPrefix(t.n)
		} else {
			var kept pairList
			for i, m := 0, s.len(); i < m; i++ {
				if e := s.at(i); GlobalSeq(e.Global.Max) > horizon {
					kept.append(e)
				}
			}
			s = kept
		}
		if s.len() == 0 && len(s.spine) == 0 {
			delete(w.bySource, t.src)
		} else {
			w.bySource[t.src] = s // a drained list keeps its tail chunk for refills
		}
		if dropped != nil {
			dropped(t.src, LocalSeq(t.maxL))
		}
	}
	return idx
}

// isGlobalPrefix reports whether s's first k entries all end at or below
// horizon. When s holds exactly k such entries, they are then its first k.
func isGlobalPrefix(s *pairList, k int, horizon GlobalSeq) bool {
	for i := 0; i < k; i++ {
		if GlobalSeq(s.at(i).Global.Max) > horizon {
			return false
		}
	}
	return true
}

// HorizonForSize returns the compaction horizon that keeps only the
// newest max entries (0 when the table is not larger than max). Global
// ranges are disjoint and sorted, so compacting at this horizon drops
// exactly Len()−max entries. Callers use it to hard-cap a circulating
// token's size when the sequence-based CompactKeep window has not opened
// yet; the per-source high-water marks keep duplicate-assignment
// detection intact for whatever is dropped.
func (w *WTSNP) HorizonForSize(max int) GlobalSeq {
	n := w.entries.len()
	if max < 0 || n <= max {
		return 0
	}
	return GlobalSeq(w.entries.at(n - max - 1).Global.Max)
}

// Validate checks all structural invariants, returning the first
// violation found.
func (w *WTSNP) Validate() error {
	if err := w.entries.check(); err != nil {
		return fmt.Errorf("wtsnp: entries: %w", err)
	}
	total := 0
	n := w.entries.len()
	for i := 0; i < n; i++ {
		a := w.entries.at(i)
		if !a.Valid() {
			return fmt.Errorf("wtsnp: entry %d invalid: %v", i, a)
		}
		if i > 0 && w.entries.at(i-1).Global.Max >= a.Global.Min {
			return fmt.Errorf("wtsnp: entries %d and %d overlap or are unsorted globally", i-1, i)
		}
	}
	for src, s := range w.bySource {
		if err := s.check(); err != nil {
			return fmt.Errorf("wtsnp: source %v: %w", src, err)
		}
		for j, m := 0, s.len(); j < m; j++ {
			a := s.at(j)
			if a.SourceNode != src {
				return fmt.Errorf("wtsnp: entry %v indexed under %v", a, src)
			}
			if j > 0 && s.at(j-1).Local.Max >= a.Local.Min {
				return fmt.Errorf("wtsnp: entries %d and %d overlap or are unsorted locally for %v", j-1, j, src)
			}
			if hw := w.maxLocal[src]; uint64(hw) < a.Local.Max {
				return fmt.Errorf("wtsnp: high-water %d below entry %v", hw, a)
			}
			i := w.globalPos(a.Global.Min)
			if i == 0 || w.entries.at(i-1) != a {
				return fmt.Errorf("wtsnp: entry %v missing from global index", a)
			}
			if g := GlobalSeq(a.Global.Max); g > w.absorbed {
				return fmt.Errorf("wtsnp: absorb watermark %d below entry %v", w.absorbed, a)
			}
		}
		total += s.len()
	}
	if total != n {
		return fmt.Errorf("wtsnp: index holds %d entries, table %d", total, n)
	}
	digest := w.markDigests()
	for i := 0; i < n; i++ {
		digest += pairDigest(w.entries.at(i))
	}
	if digest != w.digest {
		return fmt.Errorf("wtsnp: running digest does not match the table")
	}
	return nil
}

func (w *WTSNP) String() string {
	var b strings.Builder
	b.WriteString("WTSNP{")
	for i, n := 0, w.entries.len(); i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(w.entries.at(i).String())
	}
	b.WriteString("}")
	return b.String()
}

// Token is the OrderingToken that circulates along the top logical ring
// (paper §4.1). NextGlobalSeq is the next unassigned global sequence
// number; Table records what has been assigned so far; Epoch distinguishes
// regenerated tokens (higher epoch wins during Multiple-Token resolution);
// Hops counts link traversals for diagnostics.
type Token struct {
	Group         GroupID
	NextGlobalSeq GlobalSeq
	Epoch         uint64
	Hops          uint64
	Table         *WTSNP
}

// NewToken returns a fresh token for a group with NextGlobalSeq = 1.
func NewToken(g GroupID) *Token {
	return &Token{Group: g, NextGlobalSeq: 1, Table: NewWTSNP()}
}

// Clone copies the token. The table's chunked entry storage is shared
// structurally, so cloning is O(1) and the per-hop mutation that follows
// copies a chunk-pointer spine and one tail chunk, not the entry array.
func (t *Token) Clone() *Token {
	if t == nil {
		return nil
	}
	c := *t
	c.Table = t.Table.Clone()
	return &c
}

// Assign maps the contiguous run of local sequence numbers [lo, hi] from
// source src, ordered at node ord, to fresh global numbers. It returns the
// assigned global range. Empty input (hi < lo or lo == 0) is a no-op.
func (t *Token) Assign(src, ord NodeID, lo, hi LocalSeq) (Range, error) {
	if lo == 0 || hi < lo {
		return Range{}, nil
	}
	n := uint64(hi) - uint64(lo) + 1
	g := Range{Min: uint64(t.NextGlobalSeq), Max: uint64(t.NextGlobalSeq) + n - 1}
	p := Pair{
		SourceNode:   src,
		OrderingNode: ord,
		Local:        Range{Min: uint64(lo), Max: uint64(hi)},
		Global:       g,
	}
	if err := t.Table.Append(p); err != nil {
		return Range{}, err
	}
	t.NextGlobalSeq = GlobalSeq(g.Max + 1)
	return g, nil
}

// Supersedes reports whether token t should survive a Multiple-Token
// resolution against o: higher epoch wins, then higher NextGlobalSeq.
func (t *Token) Supersedes(o *Token) bool {
	if o == nil {
		return true
	}
	if t == nil {
		return false
	}
	if t.Epoch != o.Epoch {
		return t.Epoch > o.Epoch
	}
	return t.NextGlobalSeq >= o.NextGlobalSeq
}

func (t *Token) String() string {
	if t == nil {
		return "Token(nil)"
	}
	return fmt.Sprintf("Token{g=%d next=%d epoch=%d hops=%d entries=%d}",
		t.Group, t.NextGlobalSeq, t.Epoch, t.Hops, t.Table.Len())
}
