package msg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/seq"
)

// The binary wire format is one leading Kind byte, then the message's
// fields in the order its layout lists them (layout, below). Every
// unsigned integer is a canonical uvarint (LEB128, as binary.AppendUvarint
// writes it), so a sequence number costs what its magnitude needs and an
// id or a group costs one byte on a small deployment: a Data message
// around a 64 B payload is at most 76 bytes while its sequence numbers
// stay below 2^21, where fixed-width fields made it 98.
// The other field shapes are a byte, a 0/1 flag byte, a flag followed by
// a value only when it is non-zero, a uvarint-length byte string, a
// uvarint count followed by that many elements, a token — the run-chained
// varint layout owned by internal/seq (wire.go, delta.go) — and eight
// fixed little-endian bytes for an order hash or a signed wall-clock
// timestamp, which a varint would only lengthen.
//
// Each kind's layout is written down once. Encode, Decode and WireSize
// are three passes of a walker over it, so the size the bandwidth model
// charges is the encoded length by construction, and the decoder accepts
// exactly the bytes the encoder can produce: Encode(Decode(b)) == b for
// every b Decode accepts.

// ErrTruncated is returned when a buffer ends before the message does.
var ErrTruncated = errors.New("msg: truncated message")

// ErrVarint is returned for a varint that is not canonical: padded with
// zero groups, past 64 bits, or an identifier past 32.
var ErrVarint = errors.New("msg: malformed varint")

// errNonCanonical is wrapped by every refusal of bytes an honest encoder
// would not write: a flag byte other than 0 or 1, an optional field
// marked present that holds zero, trailing bytes.
var errNonCanonical = errors.New("msg: non-canonical encoding")

type pass uint8

const (
	sizing pass = iota
	encoding
	decoding
)

// walker is one pass over a layout. Sizing counts bytes into n, encoding
// appends to buf, decoding reads buf from off into the fields and latches
// the first error, after which it reads nothing more. Only decoding
// writes to the message: the other two passes may run on a message
// another goroutine is reading.
type walker struct {
	pass pass
	buf  []byte
	off  int
	n    int
	err  error
}

func (w *walker) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// take consumes the next n input bytes, or latches ErrTruncated and
// returns nil.
func (w *walker) take(n int) []byte {
	if w.err != nil || n > len(w.buf)-w.off {
		w.fail(ErrTruncated)
		return nil
	}
	b := w.buf[w.off : w.off+n : w.off+n]
	w.off += n
	return b
}

func u8(w *walker, v *uint8) {
	switch w.pass {
	case sizing:
		w.n++
	case encoding:
		w.buf = append(w.buf, *v)
	default:
		if b := w.take(1); b != nil {
			*v = b[0]
		}
	}
}

// fixed64 is eight little-endian bytes, for the values a varint would
// lengthen: hashes, and signed wall-clock timestamps.
func fixed64[T ~uint64 | ~int64](w *walker, v *T) {
	switch w.pass {
	case sizing:
		w.n += 8
	case encoding:
		w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(*v))
	default:
		if b := w.take(8); b != nil {
			*v = T(binary.LittleEndian.Uint64(b))
		}
	}
}

// uv is a canonical uvarint: the encoding binary.AppendUvarint produces,
// and for a 32-bit field a value that fits it.
func uv[T ~uint32 | ~uint64](w *walker, v *T) {
	switch w.pass {
	case sizing:
		w.n += UvarintLen(uint64(*v))
	case encoding:
		w.buf = binary.AppendUvarint(w.buf, uint64(*v))
	default:
		if w.err != nil {
			return
		}
		if w.off < len(w.buf) && w.buf[w.off] < 0x80 {
			// One byte — most ids and counts — is canonical and fits any
			// T: skip the general reader's call.
			*v = T(w.buf[w.off])
			w.off++
			return
		}
		x, n, err := ReadUvarint(w.buf[w.off:])
		if err == nil && uint64(T(x)) != x {
			err = ErrVarint
		}
		if err != nil {
			w.fail(err)
			return
		}
		w.off += n
		*v = T(x)
	}
}

// UvarintLen is the length of v's uvarint encoding.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// ReadUvarint reads the canonical uvarint at the start of b: ErrTruncated
// if b ends inside it, ErrVarint if it is padded with zero groups or runs
// past 64 bits. The frame layer reads its varints with it too, so a
// datagram decodes only from the bytes the encoder writes.
func ReadUvarint(b []byte) (v uint64, n int, err error) {
	v, n = binary.Uvarint(b)
	switch {
	case n == 0:
		return 0, 0, ErrTruncated
	case n < 0 || (n > 1 && b[n-1] == 0):
		return 0, 0, ErrVarint
	}
	return v, n, nil
}

// flag is a bool as one byte, 0 or 1.
func flag(w *walker, v *bool) {
	switch w.pass {
	case sizing:
		w.n++
	case encoding:
		var b uint8
		if *v {
			b = 1
		}
		w.buf = append(w.buf, b)
	default:
		if b := w.take(1); b != nil {
			if b[0] > 1 {
				w.fail(fmt.Errorf("%w: flag byte %d", errNonCanonical, b[0]))
			}
			*v = b[0] == 1
		}
	}
}

// opt is a flag, then v as a uvarint when it is non-zero.
func opt[T ~uint64](w *walker, v *T) {
	present := *v != 0
	if flag(w, &present); present {
		uv(w, v)
		if w.pass == decoding && w.err == nil && *v == 0 {
			w.fail(fmt.Errorf("%w: optional field present but zero", errNonCanonical))
		}
	}
}

// blob is a uvarint length, then that many bytes. A decoded blob is a
// copy, never nil.
func blob(w *walker, v *[]byte) {
	switch w.pass {
	case sizing:
		w.n += UvarintLen(uint64(len(*v))) + len(*v)
	case encoding:
		w.buf = append(binary.AppendUvarint(w.buf, uint64(len(*v))), *v...)
	default:
		if b := w.span(); b != nil {
			*v = bytes.Clone(b)
		}
	}
}

// text is a string laid out as a blob.
func text(w *walker, v *string) {
	switch w.pass {
	case sizing:
		w.n += UvarintLen(uint64(len(*v))) + len(*v)
	case encoding:
		w.buf = append(binary.AppendUvarint(w.buf, uint64(len(*v))), *v...)
	default:
		if b := w.span(); b != nil {
			*v = string(b)
		}
	}
}

// span reads a blob's uvarint length and returns that many input bytes,
// or nil.
func (w *walker) span() []byte {
	var n uint64
	if uv(w, &n); w.err == nil && n > uint64(len(w.buf)-w.off) {
		w.fail(ErrTruncated)
		return nil
	}
	return w.take(int(n))
}

// list is a slice's element count as a uvarint; the caller walks the
// elements after it. Decoding, it sizes the slice to the count (nil for
// none) and refuses a count the bytes left cannot hold at minEach bytes
// an element, so a hostile count costs neither a loop nor an allocation.
func list[E any](w *walker, s *[]E, minEach int) {
	n := uint64(len(*s))
	uv(w, &n)
	if w.pass != decoding || w.err != nil || n == 0 {
		return
	}
	if n > uint64(len(w.buf)-w.off)/uint64(minEach) {
		w.fail(ErrTruncated)
		return
	}
	*s = make([]E, n)
}

// Token presence bytes: no token, the whole token, or a delta from the
// base the receiver acknowledged (TokenMsg only).
const (
	tokenNone  = 0
	tokenWhole = 1
	tokenDelta = 2
)

// token is an optional token: a presence byte, then the layout
// internal/seq owns. Only a TokenMsg passes d, and only it can carry a
// delta: when its sender set base, or when it was decoded from one.
func token(w *walker, t **seq.Token, base *seq.Token, d **seq.Delta) {
	var present uint8
	switch {
	case d != nil && (*d != nil || base != nil):
		present = tokenDelta
	case *t != nil:
		present = tokenWhole
	}
	if u8(w, &present); present == tokenNone {
		return
	}
	decoded := d != nil && *d != nil // a delta passed on as it arrived
	switch w.pass {
	case sizing:
		switch {
		case decoded:
			w.n += (*d).WireLen()
		case present == tokenDelta:
			w.n += (*t).DeltaLen(base)
		default:
			w.n += (*t).WireLen() // kept current by the table: no walk
		}
	case encoding:
		if decoded {
			w.buf = (*d).AppendWire(w.buf)
		} else {
			w.buf = (*t).AppendDelta(w.buf, base) // nil base: the whole token
		}
	default:
		if w.err != nil {
			return
		}
		var n int
		var err error
		switch {
		case present == tokenWhole:
			*t, n, err = seq.DecodeToken(w.buf[w.off:])
		case present == tokenDelta && d != nil:
			*d, n, err = seq.DecodeDelta(w.buf[w.off:])
		default:
			err = fmt.Errorf("presence byte %d", present)
		}
		if err != nil {
			w.fail(fmt.Errorf("msg: decoding token: %w", err))
			return
		}
		w.off += n
	}
}

// ackFields is an Ack's layout after its kind byte; a TokenAck carries
// the same fields as its piggybacked Cum, last in both. The gap list is
// a trailing optional field: absent — no bytes at all — when empty, so
// a gap-free Ack pays nothing for it, and present exactly when bytes
// follow the batch. Present, it must be non-empty and every gap must lie
// above its source's Batch cum.
func ackFields(w *walker, a *Ack) {
	uv(w, &a.Group)
	uv(w, &a.From)
	uv(w, &a.Source)
	uv(w, &a.CumLocal)
	uv(w, &a.CumGlobal)
	list(w, &a.Batch, 2)
	for i := range a.Batch {
		uv(w, &a.Batch[i].Source)
		uv(w, &a.Batch[i].Cum)
	}
	if w.pass == decoding {
		if w.err != nil || w.off == len(w.buf) {
			return
		}
	} else if len(a.Gaps) == 0 {
		return
	}
	list(w, &a.Gaps, 2)
	for i := range a.Gaps {
		uv(w, &a.Gaps[i].Source)
		uv(w, &a.Gaps[i].Above)
	}
	if w.pass == decoding && w.err == nil {
		if len(a.Gaps) == 0 {
			w.fail(fmt.Errorf("%w: empty gap list present", errNonCanonical))
		}
		for _, g := range a.Gaps {
			if !gapAboveCum(a.Batch, g) {
				w.fail(fmt.Errorf("%w: gap %d above %d not past its source's cum", errNonCanonical, g.Source, g.Above))
				return
			}
		}
	}
}

// gapAboveCum reports whether g's source has a Batch entry whose cum
// lies below g.Above.
func gapAboveCum(batch []SourceCum, g SourceGap) bool {
	for _, sc := range batch {
		if sc.Source == g.Source {
			return g.Above > sc.Cum
		}
	}
	return false
}

// layout walks m's fields in wire order, after the kind byte. It is the
// one description of every kind's encoding.
func layout(w *walker, m Message) {
	switch v := m.(type) {
	case *Data:
		uv(w, &v.Group)
		uv(w, &v.SourceNode)
		uv(w, &v.LocalSeq)
		uv(w, &v.OrderingNode)
		uv(w, &v.GlobalSeq)
		opt(w, &v.AckCum)
		blob(w, &v.Payload)
	case *Ack:
		ackFields(w, v)
	case *Nack:
		uv(w, &v.Group)
		uv(w, &v.From)
		uv(w, &v.Range.Min)
		uv(w, &v.Range.Max)
	case *TokenMsg:
		uv(w, &v.From)
		token(w, &v.Token, v.Base, &v.Delta)
	case *TokenAck:
		uv(w, &v.From)
		uv(w, &v.Epoch)
		uv(w, &v.Hops)
		uv(w, &v.Next)
		present := v.Cum != nil
		if flag(w, &present); present {
			if v.Cum == nil {
				v.Cum = new(Ack)
			}
			ackFields(w, v.Cum)
		}
	case *TokenRegen:
		uv(w, &v.Origin)
		uv(w, &v.From)
		token(w, &v.Token, nil, nil)
	case *Join:
		uv(w, &v.Group)
		uv(w, &v.Host)
		uv(w, &v.Node)
		uv(w, &v.Batch)
		uv(w, &v.Resume)
	case *Leave:
		uv(w, &v.Group)
		uv(w, &v.Host)
		uv(w, &v.Node)
		flag(w, &v.Failure)
		uv(w, &v.Batch)
	case *HandoffNotify:
		uv(w, &v.Group)
		uv(w, &v.Host)
		uv(w, &v.OldAP)
		uv(w, &v.Delivered)
	case *Reserve:
		uv(w, &v.Group)
		uv(w, &v.From)
		u8(w, &v.TTL)
	case *Progress:
		uv(w, &v.Group)
		uv(w, &v.Child)
		uv(w, &v.Host)
		uv(w, &v.Max)
	case *Heartbeat:
		uv(w, &v.From)
		uv(w, &v.Epoch)
	case *JoinReq:
		uv(w, &v.Group)
		uv(w, &v.Node)
		text(w, &v.Addr)
		opt(w, &v.Front)
	case *LeaveReq:
		uv(w, &v.Group)
		uv(w, &v.Node)
	case *RingUpdate:
		uv(w, &v.Group)
		uv(w, &v.Epoch)
		uv(w, &v.Coord)
		uv(w, &v.Baseline)
		list(w, &v.Members, 2)
		for i := range v.Members {
			uv(w, &v.Members[i].Node)
			text(w, &v.Members[i].Addr)
		}
		flag(w, &v.Merge)
		opt(w, &v.MergeTokenEpoch)
		list(w, &v.Resume, 2)
		for i := range v.Resume {
			uv(w, &v.Resume[i].Node)
			uv(w, &v.Resume[i].Front)
		}
	case *QuorumVote:
		uv(w, &v.Group)
		uv(w, &v.Epoch)
		uv(w, &v.Base)
		uv(w, &v.Proposer)
		uv(w, &v.Voter)
		flag(w, &v.Granted)
	case *RingSummary:
		uv(w, &v.Group)
		uv(w, &v.From)
		uv(w, &v.Epoch)
		uv(w, &v.Front)
		fixed64(w, &v.OrderHash)
		uv(w, &v.TokenEpoch)
		uv(w, &v.TokenHops)
	case *MergeReq:
		uv(w, &v.Group)
		uv(w, &v.Node)
		text(w, &v.Addr)
		uv(w, &v.Epoch)
		uv(w, &v.Front)
		fixed64(w, &v.OrderHash)
		uv(w, &v.TokenEpoch)
		uv(w, &v.TokenHops)
	case *TimeSync:
		u8(w, &v.Phase)
		fixed64(w, &v.T1)
		fixed64(w, &v.T2)
	case *Skip:
		uv(w, &v.Group)
		uv(w, &v.From)
		uv(w, &v.Range.Min)
		uv(w, &v.Range.Max)
		flag(w, &v.Jump)
		opt(w, &v.AckCum)
	case *Done:
		uv(w, &v.Final)
		flag(w, &v.Drained)
	default:
		panic(fmt.Sprintf("msg: no layout for %T", m))
	}
}

// wireSize is the sizing pass: len(Encode(m)) without encoding.
func wireSize(m Message) int {
	w := walker{pass: sizing}
	layout(&w, m)
	return 1 + w.n
}

// Encode serializes m to a fresh byte slice.
func Encode(m Message) []byte {
	return AppendEncode(make([]byte, 0, m.WireSize()), m)
}

// AppendEncode appends m's encoding to buf and returns the extended
// slice, so a framer can encode a batch into one buffer.
func AppendEncode(buf []byte, m Message) []byte {
	w := walker{pass: encoding, buf: append(buf, uint8(m.Kind()))}
	layout(&w, m)
	return w.buf
}

// Decode parses one message, which must fill buf exactly.
func Decode(buf []byte) (Message, error) {
	if len(buf) == 0 {
		return nil, ErrTruncated
	}
	k := Kind(buf[0])
	if int(k) >= len(kinds) || kinds[k].new == nil {
		return nil, fmt.Errorf("msg: unknown kind %d", k)
	}
	m := kinds[k].new()
	w := walker{pass: decoding, buf: buf, off: 1}
	layout(&w, m)
	if w.err == nil && w.off != len(buf) {
		w.err = fmt.Errorf("%w: %d trailing bytes after %v", errNonCanonical, len(buf)-w.off, k)
	}
	if w.err != nil {
		return nil, w.err
	}
	return m, nil
}
