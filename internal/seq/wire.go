package seq

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
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
//	flagLocalChain   Local.Min == 1 + the highest Local.Max among this
//	                 source's earlier entries in the message; field elided
//
// A chain flag needs a predecessor to chain from. The layout is stateless
// (nothing outside the message is consulted) and canonical: the encoder
// always elides what it can, and the decoder rejects an encoding that did
// not — so a table has exactly one encoding and decode∘encode is the
// identity on bytes.
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

// entryWireLen is the encoded size of p given what it chains from: prevMax
// is the previous entry's Global.Max and srcMax the highest Local.Max among
// the source's earlier entries, each 0 when there is none (valid sequence
// numbers start at 1). It mirrors appendEntry.
func entryWireLen(p Pair, prevMax, srcMax uint64) int {
	n := 1 + uvarintLen(uint64(p.SourceNode)) + uvarintLen(p.Global.Max-p.Global.Min)
	if p.OrderingNode != p.SourceNode {
		n += uvarintLen(uint64(p.OrderingNode))
	}
	if prevMax == 0 || p.Global.Min != prevMax+1 {
		n += uvarintLen(p.Global.Min - prevMax - 1)
	}
	if srcMax == 0 || p.Local.Min != srcMax+1 {
		n += uvarintLen(p.Local.Min)
	}
	return n
}

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

// chainWalk tracks, across a walk of the entries in global order, the two
// values each entry chains from (see entryWireLen). hws is the table's
// HighWaters: sorted by source, it doubles as the index of the per-source
// running maxima in run.
type chainWalk struct {
	hws     []HighWater
	run     []uint64
	prevMax uint64
}

func (w *WTSNP) newChainWalk() chainWalk {
	hws := w.HighWaters()
	return chainWalk{hws: hws, run: make([]uint64, len(hws))}
}

// step returns what p chains from and advances past it.
func (c *chainWalk) step(p Pair) (prevMax, srcMax uint64) {
	k := sort.Search(len(c.hws), func(k int) bool { return c.hws[k].Source >= p.SourceNode })
	prevMax, srcMax = c.prevMax, c.run[k]
	c.prevMax = p.Global.Max
	if p.Local.Max > srcMax {
		c.run[k] = p.Local.Max
	}
	return prevMax, srcMax
}

// AppendWire appends the table's encoding to buf.
func (w *WTSNP) AppendWire(buf []byte) []byte {
	c := w.newChainWalk()
	n := w.entries.len()
	buf = binary.AppendUvarint(buf, uint64(n))
	for i := 0; i < n; i++ {
		p := w.entries.at(i)
		prevMax, srcMax := c.step(p)
		buf = appendEntry(buf, p, prevMax, srcMax)
	}
	// Per-source high-water marks survive compaction, so the entries alone
	// cannot reconstruct them; without them a decoded table would accept
	// duplicate assignment of already-ordered locals.
	buf = binary.AppendUvarint(buf, uint64(len(c.hws)))
	for _, h := range c.hws {
		buf = binary.AppendUvarint(buf, uint64(h.Source))
		buf = binary.AppendUvarint(buf, uint64(h.Max))
	}
	return buf
}

// WireLen returns len(w.AppendWire(nil)) without encoding. It is O(1)
// while the table only grows at its tail (Assign, in-order decode); the
// first call after a Compact or an interior Insert walks the table once.
// That call writes the cache, so — like Clone — it must not race with
// another use of the same table value.
func (w *WTSNP) WireLen() int {
	if w.wireLen < 0 {
		c := w.newChainWalk()
		size := 0
		for i, n := 0, w.entries.len(); i < n; i++ {
			p := w.entries.at(i)
			prevMax, srcMax := c.step(p)
			size += entryWireLen(p, prevMax, srcMax)
		}
		for _, h := range c.hws {
			size += uvarintLen(uint64(h.Source)) + uvarintLen(uint64(h.Max))
		}
		w.wireLen = size
	}
	return uvarintLen(uint64(w.entries.len())) + uvarintLen(uint64(len(w.maxLocal))) + w.wireLen
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

// decodeTable parses a table produced by AppendWire. Every invariant
// Insert enforces holds for the result.
func decodeTable(r *wireReader) (*WTSNP, error) {
	w := NewWTSNP()
	var prevMax uint64
	for i, n := 0, r.count(minEntryWire, "entries"); i < n; i++ {
		flags := r.u8()
		if flags&^flagMask != 0 {
			r.fail("entry %d: unknown flag bits %#x", i, flags)
		}
		p := Pair{SourceNode: NodeID(r.uv32())}
		p.OrderingNode = p.SourceNode
		if flags&flagOrdIsSrc == 0 {
			if p.OrderingNode = NodeID(r.uv32()); p.OrderingNode == p.SourceNode {
				r.fail("entry %d: ordering node not elided", i)
			}
		}
		run := r.uv()
		var gap uint64
		if flags&flagGlobalChain == 0 {
			if gap = r.uv(); gap == 0 && prevMax != 0 {
				r.fail("entry %d: global start not elided", i)
			}
		} else if prevMax == 0 {
			r.fail("entry %d: global chain without a predecessor", i)
		}
		var srcMax uint64
		if s := w.bySource[p.SourceNode]; s.len() > 0 {
			srcMax = s.at(s.len() - 1).Local.Max
		}
		p.Local.Min = srcMax + 1
		if flags&flagLocalChain == 0 {
			if p.Local.Min = r.uv(); p.Local.Min == srcMax+1 && srcMax != 0 {
				r.fail("entry %d: local start not elided", i)
			}
		} else if srcMax == 0 {
			r.fail("entry %d: local chain without a predecessor for %v", i, p.SourceNode)
		}
		if r.err != nil {
			return nil, r.err
		}
		p.Global.Min = prevMax + 1 + gap
		p.Global.Max = p.Global.Min + run
		p.Local.Max = p.Local.Min + run
		if p.Global.Min <= prevMax || p.Global.Max < p.Global.Min || p.Local.Max < p.Local.Min {
			return nil, fmt.Errorf("%w: entry %d: range wraps 64 bits", ErrWire, i)
		}
		// Insert, not Append: a compacted table's surviving runs need not
		// start at the per-source high-water mark.
		if err := w.Insert(p); err != nil {
			return nil, fmt.Errorf("%w: entry %d: %v", ErrWire, i, err)
		}
		prevMax = p.Global.Max
	}
	nh := r.count(minHighWaterWire, "high-water marks")
	var prevSrc NodeID
	for i := 0; i < nh; i++ {
		src, hw := NodeID(r.uv32()), LocalSeq(r.uv())
		if r.err != nil {
			return nil, r.err
		}
		if i > 0 && src <= prevSrc {
			return nil, fmt.Errorf("%w: high-water marks not in ascending source order", ErrWire)
		}
		if hw == 0 || hw < w.maxLocal[src] {
			return nil, fmt.Errorf("%w: high-water %d for %v below its entries", ErrWire, hw, src)
		}
		w.RestoreHighWater(src, hw)
		prevSrc = src
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(w.maxLocal) != nh {
		return nil, fmt.Errorf("%w: %d sources but %d high-water marks", ErrWire, len(w.maxLocal), nh)
	}
	return w, nil
}

// AppendWire appends the token's encoding — header fields, then the
// table — to buf.
func (t *Token) AppendWire(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(t.Group))
	buf = binary.AppendUvarint(buf, uint64(t.NextGlobalSeq))
	buf = binary.AppendUvarint(buf, t.Epoch)
	buf = binary.AppendUvarint(buf, t.Hops)
	return t.Table.AppendWire(buf)
}

// WireLen returns len(t.AppendWire(nil)); see WTSNP.WireLen for its cost.
func (t *Token) WireLen() int {
	return uvarintLen(uint64(t.Group)) + uvarintLen(uint64(t.NextGlobalSeq)) +
		uvarintLen(t.Epoch) + uvarintLen(t.Hops) + t.Table.WireLen()
}

// DecodeToken parses a token produced by Token.AppendWire from the front
// of buf and returns it with the number of bytes consumed.
func DecodeToken(buf []byte) (*Token, int, error) {
	r := &wireReader{buf: buf}
	t := &Token{Group: GroupID(r.uv32())}
	t.NextGlobalSeq = GlobalSeq(r.uv())
	t.Epoch = r.uv()
	t.Hops = r.uv()
	if r.err != nil {
		return nil, 0, r.err
	}
	var err error
	if t.Table, err = decodeTable(r); err != nil {
		return nil, 0, err
	}
	return t, r.off, nil
}
