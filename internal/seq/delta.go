package seq

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// A token hop needs the whole table only when the receiver may lack its
// history. Once a successor has acknowledged a version of the token, the
// next hop to it can be a delta from that version — its base:
//
//	delta   group, nextGlobal, epoch, hops,
//	        hops − base hops, nextGlobal − base nextGlobal,
//	        base digest (u64, little-endian),
//	        drop, table
//
// The base has the token's group and epoch. drop is the table's
// compaction horizon as a count: how many of the base's leading entries
// compaction has removed since. table is the whole-token table layout
// (wire.go) holding only the entries added since the base, chained from
// the base's last entry and high-water marks, followed by every
// high-water mark. A whole token is this layout from the empty base with
// the base fields left out, byte for byte.
//
// The receiver rebuilds the table from its own copy of the base and
// accepts the result only when the digest proves both copies are the
// same version; the sender cuts a delta only from a base its token
// extends (DeltaFrom). A rebuilt token is therefore the sender's token,
// or refused.

var (
	// ErrDeltaBase is returned by Rebuild when the base offered is not
	// the version the delta names.
	ErrDeltaBase = errors.New("seq: delta names another base version")
	// ErrDeltaDigest is returned by Rebuild when the base offered has the
	// named version but not the content the sender cut the delta from.
	ErrDeltaDigest = errors.New("seq: delta base digest mismatch")
)

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// pairDigest and markDigest are the summands of a table's running digest.
// A sum is order-free, so an insert adds one term and a compaction
// subtracts the terms it drops.
func pairDigest(p Pair) uint64 {
	return mix((uint64(p.SourceNode)<<32|uint64(p.OrderingNode))*0x9e3779b97f4a7c15 ^
		p.Local.Min*0xc2b2ae3d27d4eb4f ^ p.Global.Min*0x165667b19e3779f9 ^
		(p.Global.Max-p.Global.Min)*0xd6e8feb86659fd93)
}

func markDigest(src NodeID, hw LocalSeq) uint64 {
	return mix(mix(uint64(src)|1<<63) ^ uint64(hw))
}

// markDigests sums markDigest over the table's high-water marks.
func (w *WTSNP) markDigests() uint64 {
	var sum uint64
	for src, hw := range w.maxLocal {
		sum += markDigest(src, hw)
	}
	return sum
}

// digest fingerprints the token — header, entries and high-water marks —
// in O(1), from the running sums its table keeps. Two copies of one
// version agree; copies that differ agree only by chance.
func (t *Token) digest() uint64 {
	w := t.Table
	h := mix(uint64(t.Group)<<32 | uint64(w.entries.len()))
	h = mix(h ^ uint64(t.NextGlobalSeq))
	h = mix(h ^ t.Epoch)
	h = mix(h ^ t.Hops)
	return mix(h ^ w.digest)
}

// kept returns how many of w's leading entries a delta from base leaves
// to the base: those at or below the base's last global.
func (w *WTSNP) kept(base *WTSNP) int {
	last := base.lastGlobal()
	return sort.Search(w.entries.len(), func(i int) bool { return w.entries.at(i).Global.Min > last })
}

// DeltaFrom reports whether t can travel as a delta from base: a later
// hop of the same group and epoch whose table is base's with a prefix
// compacted away and entries appended, and whose high-water marks cover
// base's. The shared middle is compared through the running digests, so
// the check costs O(dropped + appended) entries however large the table
// is.
func (t *Token) DeltaFrom(base *Token) bool {
	if base == nil || t.Group != base.Group || t.Epoch != base.Epoch ||
		t.Hops <= base.Hops || t.NextGlobalSeq < base.NextGlobalSeq {
		return false
	}
	w, b := t.Table, base.Table
	keep, bn := w.kept(b), b.entries.len()
	drop := bn - keep
	if drop < 0 {
		return false
	}
	if keep > 0 && (w.entries.at(0) != b.entries.at(drop) || w.entries.at(keep-1) != b.entries.at(bn-1)) {
		return false
	}
	sum := b.digest - b.markDigests() + w.markDigests()
	for i := 0; i < drop; i++ {
		sum -= pairDigest(b.entries.at(i))
	}
	for i, n := keep, w.entries.len(); i < n; i++ {
		sum += pairDigest(w.entries.at(i))
	}
	if sum != w.digest {
		return false
	}
	for src, hw := range b.maxLocal {
		if w.maxLocal[src] < hw {
			return false
		}
	}
	return true
}

// AppendDelta appends t's encoding as a delta from base, which must
// satisfy t.DeltaFrom(base). A nil base appends the whole token.
func (t *Token) AppendDelta(buf []byte, base *Token) []byte {
	if base == nil {
		buf = appendHeader(buf, t.Group, t.NextGlobalSeq, t.Epoch, t.Hops)
		return t.Table.appendTable(buf, nil, 0)
	}
	keep := t.Table.kept(base.Table)
	head := t.deltaHead(base)
	buf = binary.AppendUvarint(head.appendHead(buf), uint64(base.Table.entries.len()-keep))
	return t.Table.appendTable(buf, base.Table, keep)
}

// DeltaLen returns len(t.AppendDelta(nil, base)). It walks only the
// entries added since base, and allocates nothing.
func (t *Token) DeltaLen(base *Token) int {
	if base == nil {
		return t.WireLen()
	}
	keep := t.Table.kept(base.Table)
	head := t.deltaHead(base)
	return head.headLen() + uvarintLen(uint64(base.Table.entries.len()-keep)) + t.Table.tableLen(base.Table, keep)
}

// deltaHead returns the head of t's delta from base: all of it but the
// body.
func (t *Token) deltaHead(base *Token) Delta {
	return Delta{Group: t.Group, NextGlobalSeq: t.NextGlobalSeq, Epoch: t.Epoch, Hops: t.Hops,
		BaseHops: base.Hops, BaseNext: base.NextGlobalSeq, Digest: base.digest()}
}

// Delta is a token hop decoded without the base it was cut from: the
// token's header, the reference to its base, and the rest of the
// encoding, which only that base resolves (Rebuild). The header is
// enough to acknowledge the hop and to recognise a duplicate.
type Delta struct {
	Group         GroupID
	NextGlobalSeq GlobalSeq
	Epoch         uint64 // the base's epoch too
	Hops          uint64
	BaseHops      uint64
	BaseNext      GlobalSeq
	Digest        uint64 // the base's digest

	body []byte // drop and table, verbatim
}

// DecodeDelta parses a delta produced by Token.AppendDelta from the front
// of buf and returns it with the number of bytes consumed. It checks the
// encoding's structure; only Rebuild can check its content.
func DecodeDelta(buf []byte) (*Delta, int, error) {
	r := &wireReader{buf: buf}
	t := r.header()
	back, advance := r.uv(), r.uv()
	if r.err == nil && (back == 0 || back > t.Hops || advance > uint64(t.NextGlobalSeq)) {
		r.fail("base hop −%d, next −%d of hop %d, next %d", back, advance, t.Hops, t.NextGlobalSeq)
	}
	var digest uint64
	if r.err == nil {
		if len(buf)-r.off < 8 {
			r.fail("truncated")
		} else {
			digest = binary.LittleEndian.Uint64(buf[r.off:])
			r.off += 8
		}
	}
	start := r.off
	r.uv()
	skipTable(r)
	if r.err != nil {
		return nil, 0, r.err
	}
	return &Delta{
		Group: t.Group, NextGlobalSeq: t.NextGlobalSeq, Epoch: t.Epoch, Hops: t.Hops,
		BaseHops: t.Hops - back, BaseNext: t.NextGlobalSeq - GlobalSeq(advance), Digest: digest,
		body: append([]byte(nil), buf[start:r.off]...),
	}, r.off, nil
}

// appendHead appends the delta's head: the token header, the base
// reference, the base's digest.
func (d *Delta) appendHead(buf []byte) []byte {
	buf = appendHeader(buf, d.Group, d.NextGlobalSeq, d.Epoch, d.Hops)
	buf = binary.AppendUvarint(buf, d.Hops-d.BaseHops)
	buf = binary.AppendUvarint(buf, uint64(d.NextGlobalSeq-d.BaseNext))
	return binary.LittleEndian.AppendUint64(buf, d.Digest)
}

// headLen is len(d.appendHead(nil)), measured by encoding onto the stack.
func (d *Delta) headLen() int {
	var b [maxHeaderWire + 2*10 + 8]byte
	return len(d.appendHead(b[:0]))
}

// AppendWire appends the delta's encoding, exactly as it was decoded.
func (d *Delta) AppendWire(buf []byte) []byte { return append(d.appendHead(buf), d.body...) }

// WireLen returns len(d.AppendWire(nil)).
func (d *Delta) WireLen() int { return d.headLen() + len(d.body) }

// Rebuild returns the token the delta encodes, resolved against base —
// the receiver's copy of the version the sender cut it from. It refuses
// (ErrDeltaBase, ErrDeltaDigest, or an ErrWire encoding error) rather
// than return a token that differs from the sender's. base is not
// changed; the result shares its storage copy-on-write.
func (d *Delta) Rebuild(base *Token) (*Token, error) {
	if base == nil || base.Group != d.Group || base.Epoch != d.Epoch ||
		base.Hops != d.BaseHops || base.NextGlobalSeq != d.BaseNext {
		return nil, ErrDeltaBase
	}
	if base.digest() != d.Digest {
		return nil, ErrDeltaDigest
	}
	r := &wireReader{buf: d.body}
	drop := r.uv()
	if r.err != nil {
		return nil, r.err
	}
	if drop > uint64(base.Table.entries.len()) {
		return nil, fmt.Errorf("%w: drops %d of the base's %d entries", ErrWire, drop, base.Table.entries.len())
	}
	t := base.Clone()
	t.NextGlobalSeq, t.Hops = d.NextGlobalSeq, d.Hops
	prevMax := t.Table.lastGlobal()
	if drop > 0 {
		t.Table.Compact(GlobalSeq(t.Table.entries.at(int(drop) - 1).Global.Max))
	}
	if err := decodeTable(r, t.Table, prevMax); err != nil {
		return nil, err
	}
	if r.off != len(r.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrWire, len(r.buf)-r.off)
	}
	return t, nil
}
