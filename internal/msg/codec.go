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
// fields in the order its layout lists them (layout, below). A field is
// little-endian fixed-width, a canonical unsigned varint, a u32-prefixed
// byte string, a 0/1 flag byte, a flag followed by a value only when it
// is non-zero, a count followed by that many elements, or a token. The
// messages every token hop carries use varints because together they are
// most of the control plane's bytes: the ordering token is a run-chained
// varint layout owned by internal/seq (wire.go, delta.go), and Ack and
// TokenAck are varints throughout.
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

func u32[T ~uint32](w *walker, v *T) {
	switch w.pass {
	case sizing:
		w.n += 4
	case encoding:
		w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(*v))
	default:
		if b := w.take(4); b != nil {
			*v = T(binary.LittleEndian.Uint32(b))
		}
	}
}

func u64[T ~uint64 | ~int64](w *walker, v *T) {
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
		w.n += uvarintLen(uint64(*v))
	case encoding:
		w.buf = binary.AppendUvarint(w.buf, uint64(*v))
	default:
		if w.err != nil {
			return
		}
		x, n := binary.Uvarint(w.buf[w.off:])
		switch {
		case n == 0:
			w.fail(ErrTruncated)
		case n < 0 || (n > 1 && w.buf[w.off+n-1] == 0) || uint64(T(x)) != x:
			w.fail(ErrVarint)
		default:
			w.off += n
			*v = T(x)
		}
	}
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

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

// opt is a flag, then v when it is non-zero. Most Data/Skip/JoinReq
// frames carry no value here, so the absent case costs one byte instead
// of nine.
func opt[T ~uint64](w *walker, v *T) {
	switch w.pass {
	case sizing:
		w.n++
		if *v != 0 {
			w.n += 8
		}
	case encoding:
		if *v == 0 {
			w.buf = append(w.buf, 0)
		} else {
			w.buf = binary.LittleEndian.AppendUint64(append(w.buf, 1), uint64(*v))
		}
	default:
		var present bool
		if flag(w, &present); present {
			u64(w, v)
			if w.err == nil && *v == 0 {
				w.fail(fmt.Errorf("%w: optional field present but zero", errNonCanonical))
			}
		}
	}
}

// blob is a u32 length, then that many bytes. A decoded blob is a copy,
// never nil.
func blob(w *walker, v *[]byte) {
	switch w.pass {
	case sizing:
		w.n += 4 + len(*v)
	case encoding:
		w.buf = append(binary.LittleEndian.AppendUint32(w.buf, uint32(len(*v))), *v...)
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
		w.n += 4 + len(*v)
	case encoding:
		w.buf = append(binary.LittleEndian.AppendUint32(w.buf, uint32(len(*v))), *v...)
	default:
		if b := w.span(); b != nil {
			*v = string(b)
		}
	}
}

// span reads a blob's u32 length and returns that many input bytes, or
// nil.
func (w *walker) span() []byte {
	var n uint32
	u32(w, &n)
	return w.take(int(n))
}

// list32 and listUv are a slice's element count, as a u32 or a uvarint;
// the caller walks the elements after it. Decoding, they size the slice
// to the count (nil for none) and refuse a count the bytes left cannot
// hold at minEach bytes an element, so a hostile count costs neither a
// loop nor an allocation.
func list32[E any](w *walker, s *[]E, minEach int) {
	n := uint32(len(*s))
	u32(w, &n)
	grow(w, s, uint64(n), minEach)
}

func listUv[E any](w *walker, s *[]E, minEach int) {
	n := uint64(len(*s))
	uv(w, &n)
	grow(w, s, n, minEach)
}

func grow[E any](w *walker, s *[]E, n uint64, minEach int) {
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
// the same fields as its piggybacked Cum.
func ackFields(w *walker, a *Ack) {
	uv(w, &a.Group)
	uv(w, &a.From)
	uv(w, &a.Source)
	uv(w, &a.CumLocal)
	uv(w, &a.CumGlobal)
	listUv(w, &a.Batch, 2)
	for i := range a.Batch {
		uv(w, &a.Batch[i].Source)
		uv(w, &a.Batch[i].Cum)
	}
}

// layout walks m's fields in wire order, after the kind byte. It is the
// one description of every kind's encoding.
func layout(w *walker, m Message) {
	switch v := m.(type) {
	case *Data:
		u32(w, &v.Group)
		u32(w, &v.SourceNode)
		u64(w, &v.LocalSeq)
		u32(w, &v.OrderingNode)
		u64(w, &v.GlobalSeq)
		opt(w, &v.AckCum)
		blob(w, &v.Payload)
	case *Ack:
		ackFields(w, v)
	case *Nack:
		u32(w, &v.Group)
		u32(w, &v.From)
		u64(w, &v.Range.Min)
		u64(w, &v.Range.Max)
	case *TokenMsg:
		u32(w, &v.From)
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
		u32(w, &v.Origin)
		u32(w, &v.From)
		token(w, &v.Token, nil, nil)
	case *Join:
		u32(w, &v.Group)
		u32(w, &v.Host)
		u32(w, &v.Node)
		u32(w, &v.Batch)
		u64(w, &v.Resume)
	case *Leave:
		u32(w, &v.Group)
		u32(w, &v.Host)
		u32(w, &v.Node)
		flag(w, &v.Failure)
		u32(w, &v.Batch)
	case *HandoffNotify:
		u32(w, &v.Group)
		u32(w, &v.Host)
		u32(w, &v.OldAP)
		u64(w, &v.Delivered)
	case *Reserve:
		u32(w, &v.Group)
		u32(w, &v.From)
		u8(w, &v.TTL)
	case *Progress:
		u32(w, &v.Group)
		u32(w, &v.Child)
		u32(w, &v.Host)
		u64(w, &v.Max)
	case *Heartbeat:
		u32(w, &v.From)
		u64(w, &v.Epoch)
	case *JoinReq:
		u32(w, &v.Group)
		u32(w, &v.Node)
		text(w, &v.Addr)
		opt(w, &v.Front)
	case *LeaveReq:
		u32(w, &v.Group)
		u32(w, &v.Node)
	case *RingUpdate:
		u32(w, &v.Group)
		u64(w, &v.Epoch)
		u32(w, &v.Coord)
		u64(w, &v.Baseline)
		list32(w, &v.Members, 4+4)
		for i := range v.Members {
			u32(w, &v.Members[i].Node)
			text(w, &v.Members[i].Addr)
		}
		flag(w, &v.Merge)
		opt(w, &v.MergeTokenEpoch)
		list32(w, &v.Resume, 4+8)
		for i := range v.Resume {
			u32(w, &v.Resume[i].Node)
			u64(w, &v.Resume[i].Front)
		}
	case *QuorumVote:
		u32(w, &v.Group)
		u64(w, &v.Epoch)
		u64(w, &v.Base)
		u32(w, &v.Proposer)
		u32(w, &v.Voter)
		flag(w, &v.Granted)
	case *RingSummary:
		u32(w, &v.Group)
		u32(w, &v.From)
		u64(w, &v.Epoch)
		u64(w, &v.Front)
		u64(w, &v.OrderHash)
		u64(w, &v.TokenEpoch)
		u64(w, &v.TokenHops)
	case *MergeReq:
		u32(w, &v.Group)
		u32(w, &v.Node)
		text(w, &v.Addr)
		u64(w, &v.Epoch)
		u64(w, &v.Front)
		u64(w, &v.OrderHash)
		u64(w, &v.TokenEpoch)
		u64(w, &v.TokenHops)
	case *TimeSync:
		u8(w, &v.Phase)
		u64(w, &v.T1)
		u64(w, &v.T2)
	case *Skip:
		u32(w, &v.Group)
		u32(w, &v.From)
		u64(w, &v.Range.Min)
		u64(w, &v.Range.Max)
		flag(w, &v.Jump)
		opt(w, &v.AckCum)
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
