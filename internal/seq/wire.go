package seq

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// This file owns the wire layout of a token and its WTSNP. The table is
// what a token hop pays for, and nearly all of it is predictable from the
// entry before: global ranges are contiguous, each source's local ranges
// are contiguous, the ordering node is usually the source, and the two
// ranges of a pair have equal length. The layout writes only what is not
// predictable, as unsigned varints:
//
//	token   group, nextGlobal, epoch, hops, table
//	table   entry count, entries in global order, high-water count,
//	        high-water marks as (source, max) in ascending source order
//	entry   flags u8, source, [ordering node], run−1, [global gap], [local min]
//
// run is the common length of the pair's two ranges. The optional fields
// are governed by the flag bits:
//
//	flagOrdIsSrc     ordering node == source; field elided
//	flagGlobalChain  Global.Min == previous entry's Global.Max+1; gap elided.
//	                 Otherwise gap = Global.Min − previous Global.Max − 1
//	                 (previous Global.Max = 0 for the first entry)
//	flagLocalChain   Local.Min == 1 + the source's high-water mark so far —
//	                 the highest Local.Max among its earlier entries in
//	                 the message; field elided
//
// A chain flag needs a predecessor to chain from. A whole token's layout
// is stateless (nothing outside the message is consulted); a delta
// (delta.go) is the same layout with its first entries chained from the
// base both ends hold. Both are canonical: the encoder always elides what
// it can, and the decoder rejects an encoding that did not — so a table
// has exactly one encoding and decode∘encode is the identity on bytes.
const (
	flagOrdIsSrc uint8 = 1 << iota
	flagGlobalChain
	flagLocalChain
	flagMask = flagOrdIsSrc | flagGlobalChain | flagLocalChain

	// Lower bounds on encoded sizes, used to reject an absurd count before
	// looping or allocating: flags+source+run for an entry, source+max for
	// a high-water mark.
	minEntryWire     = 3
	minHighWaterWire = 2
)

// ErrWire is wrapped by every token/table decode failure.
var ErrWire = errors.New("seq: malformed token encoding")

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// appendEntry appends p's encoding given what it chains from: prevMax is
// the previous entry's Global.Max and srcMax the highest Local.Max among
// the source's earlier entries, each 0 when there is none (valid sequence
// numbers start at 1).
func appendEntry(buf []byte, p Pair, prevMax, srcMax uint64) []byte {
	var flags uint8
	if p.OrderingNode == p.SourceNode {
		flags |= flagOrdIsSrc
	}
	if prevMax != 0 && p.Global.Min == prevMax+1 {
		flags |= flagGlobalChain
	}
	if srcMax != 0 && p.Local.Min == srcMax+1 {
		flags |= flagLocalChain
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(p.SourceNode))
	if flags&flagOrdIsSrc == 0 {
		buf = binary.AppendUvarint(buf, uint64(p.OrderingNode))
	}
	buf = binary.AppendUvarint(buf, p.Global.Max-p.Global.Min)
	if flags&flagGlobalChain == 0 {
		buf = binary.AppendUvarint(buf, p.Global.Min-prevMax-1)
	}
	if flags&flagLocalChain == 0 {
		buf = binary.AppendUvarint(buf, p.Local.Min)
	}
	return buf
}

// maxEntryWire bounds one entry's encoding: a flag byte, two 32-bit
// identifiers and three 64-bit numbers as uvarints.
const maxEntryWire = 1 + 2*5 + 3*10

// entryWireLen is len(appendEntry(nil, p, prevMax, srcMax)), measured by
// encoding onto the stack so the layout is written once.
func entryWireLen(p Pair, prevMax, srcMax uint64) int {
	var b [maxEntryWire]byte
	return len(appendEntry(b[:0], p, prevMax, srcMax))
}

// chainWalk tracks, across a walk of entries in global order, the two
// values each entry chains from (see appendEntry): the previous entry's
// Global.Max and the source's high-water mark so far — the highest
// Local.Max among its earlier entries. A walk over a whole table starts
// from nothing; a delta's walk (delta.go) starts from its base's last
// entry and high-water marks. The marks of the sources met so far sit in
// an inline array (a table has a handful of sources) and are searched
// linearly; the walk holds no pointer into itself, so it stays on the
// stack.
type chainWalk struct {
	base    *WTSNP
	prevMax uint64
	n       int // sources met
	seen    [8]HighWater
	more    []HighWater // sources past len(seen)
}

// startWalk begins a walk that chains from base (nil: from nothing).
func (c *chainWalk) startWalk(base *WTSNP) {
	*c = chainWalk{base: base, prevMax: base.lastGlobal()}
}

// step returns what p chains from and advances past it.
func (c *chainWalk) step(p Pair) (prevMax, srcMax uint64) {
	prevMax, c.prevMax = c.prevMax, p.Global.Max
	h := c.mark(p.SourceNode)
	srcMax = uint64(h.Max)
	if p.Local.Max > srcMax {
		h.Max = LocalSeq(p.Local.Max)
	}
	return prevMax, srcMax
}

// mark returns src's running mark, starting it at the base's when src is
// met for the first time.
func (c *chainWalk) mark(src NodeID) *HighWater {
	seen := c.seen[:min(c.n, len(c.seen))]
	for k := range seen {
		if seen[k].Source == src {
			return &seen[k]
		}
	}
	for k := range c.more {
		if c.more[k].Source == src {
			return &c.more[k]
		}
	}
	h := HighWater{Source: src}
	if c.base != nil {
		h.Max = c.base.maxLocal[src]
	}
	c.n++
	if c.n <= len(c.seen) {
		c.seen[c.n-1] = h
		return &c.seen[c.n-1]
	}
	c.more = append(c.more, h)
	return &c.more[len(c.more)-1]
}

// lastGlobal returns the last entry's Global.Max (0 for an empty or nil
// table): what the first entry encoded after this table chains from.
func (w *WTSNP) lastGlobal() uint64 {
	if w == nil || w.entries.len() == 0 {
		return 0
	}
	return w.entries.at(w.entries.len() - 1).Global.Max
}

// appendTable appends the table from entry keep on, chained from base
// (nil: the whole table, chained from nothing), then every high-water
// mark.
func (w *WTSNP) appendTable(buf []byte, base *WTSNP, keep int) []byte {
	var c chainWalk
	c.startWalk(base)
	n := w.entries.len()
	buf = binary.AppendUvarint(buf, uint64(n-keep))
	for i := keep; i < n; i++ {
		p := w.entries.at(i)
		prevMax, srcMax := c.step(p)
		buf = appendEntry(buf, p, prevMax, srcMax)
	}
	// Per-source high-water marks survive compaction, so the entries alone
	// cannot reconstruct them; without them a decoded table would accept
	// duplicate assignment of already-ordered locals.
	hws := w.HighWaters()
	buf = binary.AppendUvarint(buf, uint64(len(hws)))
	for _, h := range hws {
		buf = binary.AppendUvarint(buf, uint64(h.Source))
		buf = binary.AppendUvarint(buf, uint64(h.Max))
	}
	return buf
}

// tableLen returns the length appendTable(nil, base, keep) would produce:
// the entry walk, without sorting or allocating.
func (w *WTSNP) tableLen(base *WTSNP, keep int) int {
	var c chainWalk
	c.startWalk(base)
	n := w.entries.len()
	size := uvarintLen(uint64(n-keep)) + uvarintLen(uint64(len(w.maxLocal)))
	for i := keep; i < n; i++ {
		p := w.entries.at(i)
		prevMax, srcMax := c.step(p)
		size += entryWireLen(p, prevMax, srcMax)
	}
	for src, hw := range w.maxLocal {
		size += uvarintLen(uint64(src)) + uvarintLen(uint64(hw))
	}
	return size
}

// AppendWire appends the table's encoding to buf.
func (w *WTSNP) AppendWire(buf []byte) []byte { return w.appendTable(buf, nil, 0) }

// WireLen returns len(w.AppendWire(nil)) without encoding. It is O(1)
// while the table only grows at its tail (Assign, in-order decode); the
// first call after a Compact or an interior Insert walks the table once.
// That call writes the cache, so — like Clone — it must not race with
// another use of the same table value.
func (w *WTSNP) WireLen() int {
	if w.wireLen < 0 {
		w.wireLen = int32(w.tableLen(nil, 0) - uvarintLen(uint64(w.entries.len())) - uvarintLen(uint64(len(w.maxLocal))))
	}
	return uvarintLen(uint64(w.entries.len())) + uvarintLen(uint64(len(w.maxLocal))) + int(w.wireLen)
}

// wireReader consumes canonical uvarints, latching the first error.
type wireReader struct {
	buf []byte
	off int
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrWire}, args...)...)
	}
}

func (r *wireReader) u8() uint8 {
	if r.err != nil || r.off >= len(r.buf) {
		r.fail("truncated")
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// uv reads one uvarint, rejecting truncation, values past 64 bits, and
// overlong (zero-padded) forms.
func (r *wireReader) uv() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	switch {
	case n == 0:
		r.fail("truncated")
		return 0
	case n < 0:
		r.fail("varint overflows 64 bits")
		return 0
	case n > 1 && r.buf[r.off+n-1] == 0:
		r.fail("overlong varint")
		return 0
	}
	r.off += n
	return v
}

// uv32 reads a uvarint that must fit an identifier.
func (r *wireReader) uv32() uint32 {
	v := r.uv()
	if v > math.MaxUint32 {
		r.fail("identifier %d exceeds 32 bits", v)
		return 0
	}
	return uint32(v)
}

// count reads an element count and rejects one the remaining bytes cannot
// hold, so a hostile count costs neither a loop nor an allocation.
func (r *wireReader) count(minEach int, what string) int {
	n := r.uv()
	if r.err == nil && n > uint64(len(r.buf)-r.off)/uint64(minEach) {
		r.fail("%d %s in %d bytes", n, what, len(r.buf)-r.off)
		return 0
	}
	return int(n)
}

// rawEntry is one entry as the layout carries it, before it is resolved
// against what it chains from.
type rawEntry struct {
	flags    uint8
	src, ord NodeID
	run      uint64
	gap      uint64 // unless flagGlobalChain
	local    uint64 // Local.Min, unless flagLocalChain
}

// entry reads one entry's fields into e; which are present depends on the
// flag bits alone, so a reader without the table can still find its end.
func (r *wireReader) entry(i int, e *rawEntry) {
	*e = rawEntry{flags: r.u8()}
	if e.flags&^flagMask != 0 {
		r.fail("entry %d: unknown flag bits %#x", i, e.flags)
	}
	e.src = NodeID(r.uv32())
	e.ord = e.src
	if e.flags&flagOrdIsSrc == 0 {
		if e.ord = NodeID(r.uv32()); e.ord == e.src {
			r.fail("entry %d: ordering node not elided", i)
		}
	}
	e.run = r.uv()
	if e.flags&flagGlobalChain == 0 {
		e.gap = r.uv()
	}
	if e.flags&flagLocalChain == 0 {
		e.local = r.uv()
	}
}

// skipTable reads past a table encoding without resolving it: what a
// delta's decoder does with the part only the base can resolve.
func skipTable(r *wireReader) {
	var e rawEntry
	for i, n := 0, r.count(minEntryWire, "entries"); i < n && r.err == nil; i++ {
		r.entry(i, &e)
	}
	for i, n := 0, r.count(minHighWaterWire, "high-water marks"); i < n && r.err == nil; i++ {
		r.uv32()
		r.uv()
	}
}

// decodeTable parses the table part of an encoding into w: the whole
// table when w is empty and prevMax 0, or a delta's entries on top of
// what its base left in w, chained from prevMax — the base's last
// Global.Max — and w's high-water marks. Every invariant Insert enforces
// holds for the result.
func decodeTable(r *wireReader, w *WTSNP, prevMax uint64) error {
	var e rawEntry
	for i, n := 0, r.count(minEntryWire, "entries"); i < n; i++ {
		r.entry(i, &e)
		if r.err != nil {
			return r.err
		}
		if e.flags&flagGlobalChain == 0 {
			if e.gap == 0 && prevMax != 0 {
				r.fail("entry %d: global start not elided", i)
			}
		} else if prevMax == 0 {
			r.fail("entry %d: global chain without a predecessor", i)
		}
		srcMax := uint64(w.maxLocal[e.src])
		p := Pair{SourceNode: e.src, OrderingNode: e.ord, Local: Range{Min: srcMax + 1}}
		if e.flags&flagLocalChain == 0 {
			if p.Local.Min = e.local; p.Local.Min == srcMax+1 && srcMax != 0 {
				r.fail("entry %d: local start not elided", i)
			}
		} else if srcMax == 0 {
			r.fail("entry %d: local chain without a predecessor for %v", i, e.src)
		}
		if r.err != nil {
			return r.err
		}
		p.Global.Min = prevMax + 1 + e.gap
		p.Global.Max = p.Global.Min + e.run
		p.Local.Max = p.Local.Min + e.run
		if p.Global.Min <= prevMax || p.Global.Max < p.Global.Min || p.Local.Max < p.Local.Min {
			return fmt.Errorf("%w: entry %d: range wraps 64 bits", ErrWire, i)
		}
		// Insert, not Append: a compacted table's surviving runs need not
		// start at the per-source high-water mark.
		if err := w.Insert(p); err != nil {
			return fmt.Errorf("%w: entry %d: %v", ErrWire, i, err)
		}
		prevMax = p.Global.Max
	}
	nh := r.count(minHighWaterWire, "high-water marks")
	var prevSrc NodeID
	for i := 0; i < nh; i++ {
		src, hw := NodeID(r.uv32()), LocalSeq(r.uv())
		if r.err != nil {
			return r.err
		}
		if i > 0 && src <= prevSrc {
			return fmt.Errorf("%w: high-water marks not in ascending source order", ErrWire)
		}
		if hw == 0 || hw < w.maxLocal[src] {
			return fmt.Errorf("%w: high-water %d for %v below its entries", ErrWire, hw, src)
		}
		w.RestoreHighWater(src, hw)
		prevSrc = src
	}
	if r.err != nil {
		return r.err
	}
	if len(w.maxLocal) != nh {
		return fmt.Errorf("%w: %d sources but %d high-water marks", ErrWire, len(w.maxLocal), nh)
	}
	return nil
}

// appendHeader appends a token's header fields.
func appendHeader(buf []byte, g GroupID, next GlobalSeq, epoch, hops uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(g))
	buf = binary.AppendUvarint(buf, uint64(next))
	buf = binary.AppendUvarint(buf, epoch)
	return binary.AppendUvarint(buf, hops)
}

// maxHeaderWire bounds a token header's encoding.
const maxHeaderWire = 5 + 3*10

func headerLen(g GroupID, next GlobalSeq, epoch, hops uint64) int {
	var b [maxHeaderWire]byte
	return len(appendHeader(b[:0], g, next, epoch, hops))
}

// header reads the token header fields into a table-less token.
func (r *wireReader) header() Token {
	t := Token{Group: GroupID(r.uv32())}
	t.NextGlobalSeq = GlobalSeq(r.uv())
	t.Epoch = r.uv()
	t.Hops = r.uv()
	return t
}

// AppendWire appends the token's encoding — header fields, then the
// table — to buf. It is AppendDelta from no base.
func (t *Token) AppendWire(buf []byte) []byte { return t.AppendDelta(buf, nil) }

// WireLen returns len(t.AppendWire(nil)); see WTSNP.WireLen for its cost.
func (t *Token) WireLen() int {
	return headerLen(t.Group, t.NextGlobalSeq, t.Epoch, t.Hops) + t.Table.WireLen()
}

// DecodeToken parses a token produced by Token.AppendWire from the front
// of buf and returns it with the number of bytes consumed.
func DecodeToken(buf []byte) (*Token, int, error) {
	r := &wireReader{buf: buf}
	t := r.header()
	if r.err != nil {
		return nil, 0, r.err
	}
	t.Table = NewWTSNP()
	if err := decodeTable(r, t.Table, 0); err != nil {
		return nil, 0, err
	}
	return &t, r.off, nil
}
