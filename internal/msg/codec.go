package msg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/seq"
)

// The binary wire format is one leading Kind byte, then the fields in
// declaration order. Most kinds use little-endian fixed-width fields, with
// variable-length payloads prefixed by uint32 counts. The messages every
// token hop carries are the exceptions, because together they are most of
// the control plane's bytes: the ordering token is a run-chained varint
// layout owned by internal/seq (wire.go, delta.go), and Ack and TokenAck
// are canonical unsigned varints. The codec exists so the simulated
// network can carry realistic byte counts and so the wire path can move
// messages across real sockets.

// ErrTruncated is returned when a buffer ends before the message does.
var ErrTruncated = errors.New("msg: truncated message")

// ErrVarint is returned for a varint that is not canonical: padded with
// zero groups, past 64 bits, or an identifier past 32.
var ErrVarint = errors.New("msg: malformed varint")

type writer struct{ buf []byte }

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) uv(v uint64)  { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *writer) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

type reader struct {
	buf []byte
	off int
	err error
}

// truncated latches ErrTruncated unless an earlier error is latched.
func (r *reader) truncated() {
	if r.err == nil {
		r.err = ErrTruncated
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.buf) {
		r.truncated()
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.truncated()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.truncated()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// uv reads one canonical uvarint: the encoding binary.AppendUvarint
// produces, so decode∘encode is the identity on bytes.
func (r *reader) uv() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	switch {
	case n == 0:
		r.truncated()
		return 0
	case n < 0 || (n > 1 && r.buf[r.off+n-1] == 0):
		r.err = ErrVarint
		return 0
	}
	r.off += n
	return v
}

// uv32 reads a uvarint that must fit an identifier.
func (r *reader) uv32() uint32 {
	v := r.uv()
	if v > math.MaxUint32 {
		r.err = ErrVarint
		return 0
	}
	return uint32(v)
}

func (r *reader) bytes() []byte {
	n := int(r.u32())
	if r.err != nil || r.off+n > len(r.buf) {
		r.truncated()
		return nil
	}
	b := make([]byte, n)
	copy(b, r.buf[r.off:])
	r.off += n
	return b
}

// optSeq writes a presence byte followed by v when it is non-zero. Most
// Data/Skip frames carry no piggybacked acknowledgement, so the absent
// case costs one byte instead of eight.
func (w *writer) optSeq(v uint64) {
	if v == 0 {
		w.u8(0)
		return
	}
	w.u8(1)
	w.u64(v)
}

func (r *reader) optSeq() uint64 {
	if r.u8() == 0 {
		return 0
	}
	return r.u64()
}

// encodeAckBody writes an Ack's fields sans Kind byte, shared between the
// standalone KindAck frame and the TokenAck piggyback slot.
func encodeAckBody(w *writer, v *Ack) {
	w.uv(uint64(v.Group))
	w.uv(uint64(v.From))
	w.uv(uint64(v.Source))
	w.uv(uint64(v.CumLocal))
	w.uv(uint64(v.CumGlobal))
	w.uv(uint64(len(v.Batch)))
	for _, sc := range v.Batch {
		w.uv(uint64(sc.Source))
		w.uv(uint64(sc.Cum))
	}
}

func decodeAckBody(r *reader) *Ack {
	v := &Ack{}
	v.Group = seq.GroupID(r.uv32())
	v.From = seq.NodeID(r.uv32())
	v.Source = seq.NodeID(r.uv32())
	v.CumLocal = seq.LocalSeq(r.uv())
	v.CumGlobal = seq.GlobalSeq(r.uv())
	if n := r.uv(); n > 0 && r.err == nil {
		if n > uint64(len(r.buf)-r.off)/2 { // each pair costs ≥ 2 bytes
			r.err = ErrTruncated
			return v
		}
		v.Batch = make([]SourceCum, 0, n)
		for i := uint64(0); i < n; i++ {
			sc := SourceCum{Source: seq.NodeID(r.uv32())}
			sc.Cum = seq.LocalSeq(r.uv())
			v.Batch = append(v.Batch, sc)
		}
	}
	return v
}

// ackBodySize is the encoded size of encodeAckBody's output.
func ackBodySize(v *Ack) int {
	n := uvarintLen(uint64(v.Group)) + uvarintLen(uint64(v.From)) + uvarintLen(uint64(v.Source)) +
		uvarintLen(uint64(v.CumLocal)) + uvarintLen(uint64(v.CumGlobal)) + uvarintLen(uint64(len(v.Batch)))
	for _, sc := range v.Batch {
		n += uvarintLen(uint64(sc.Source)) + uvarintLen(uint64(sc.Cum))
	}
	return n
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Token presence bytes: no token, the whole token, or a delta from the
// base the receiver acknowledged (TokenMsg only).
const (
	tokenNone  = 0
	tokenWhole = 1
	tokenDelta = 2
)

// encodeToken writes an optional token: a presence byte, then the layout
// internal/seq owns.
func encodeToken(w *writer, t *seq.Token) {
	if t == nil {
		w.u8(tokenNone)
		return
	}
	w.u8(tokenWhole)
	w.buf = t.AppendWire(w.buf)
}

// decodeToken reads an optional token. A delta, legal only where
// withDelta (a TokenMsg), comes back as such for the receiver to rebuild
// against its base.
func decodeToken(r *reader, withDelta bool) (*seq.Token, *seq.Delta, error) {
	present := r.u8()
	if r.err != nil || present == tokenNone {
		return nil, nil, r.err
	}
	var t *seq.Token
	var d *seq.Delta
	var n int
	var err error
	switch {
	case present == tokenWhole:
		t, n, err = seq.DecodeToken(r.buf[r.off:])
	case present == tokenDelta && withDelta:
		d, n, err = seq.DecodeDelta(r.buf[r.off:])
	default:
		return nil, nil, fmt.Errorf("msg: decoding token: presence byte %d", present)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("msg: decoding token: %w", err)
	}
	r.off += n
	return t, d, nil
}

// Encode serializes m to a fresh byte slice.
func Encode(m Message) []byte {
	return AppendEncode(make([]byte, 0, m.WireSize()), m)
}

// AppendEncode appends m's encoding to buf and returns the extended
// slice, so a framer can encode a batch into one buffer.
func AppendEncode(buf []byte, m Message) []byte {
	w := &writer{buf: buf}
	w.u8(uint8(m.Kind()))
	switch v := m.(type) {
	case *Data:
		w.u32(uint32(v.Group))
		w.u32(uint32(v.SourceNode))
		w.u64(uint64(v.LocalSeq))
		w.u32(uint32(v.OrderingNode))
		w.u64(uint64(v.GlobalSeq))
		w.optSeq(uint64(v.AckCum))
		w.bytes(v.Payload)
	case *Ack:
		encodeAckBody(w, v)
	case *Nack:
		w.u32(uint32(v.Group))
		w.u32(uint32(v.From))
		w.u64(v.Range.Min)
		w.u64(v.Range.Max)
	case *TokenMsg:
		w.u32(uint32(v.From))
		switch {
		case v.Delta != nil:
			w.u8(tokenDelta)
			w.buf = v.Delta.AppendWire(w.buf)
		case v.Base != nil:
			w.u8(tokenDelta)
			w.buf = v.Token.AppendDelta(w.buf, v.Base)
		default:
			encodeToken(w, v.Token)
		}
	case *TokenAck:
		w.uv(uint64(v.From))
		w.uv(v.Epoch)
		w.uv(v.Hops)
		w.uv(uint64(v.Next))
		if v.Cum != nil {
			w.u8(1)
			encodeAckBody(w, v.Cum)
		} else {
			w.u8(0)
		}
	case *TokenRegen:
		w.u32(uint32(v.Origin))
		w.u32(uint32(v.From))
		encodeToken(w, v.Token)
	case *Join:
		w.u32(uint32(v.Group))
		w.u32(uint32(v.Host))
		w.u32(uint32(v.Node))
		w.u32(v.Batch)
		w.u64(uint64(v.Resume))
	case *Leave:
		w.u32(uint32(v.Group))
		w.u32(uint32(v.Host))
		w.u32(uint32(v.Node))
		if v.Failure {
			w.u8(1)
		} else {
			w.u8(0)
		}
		w.u32(v.Batch)
	case *HandoffNotify:
		w.u32(uint32(v.Group))
		w.u32(uint32(v.Host))
		w.u32(uint32(v.OldAP))
		w.u64(uint64(v.Delivered))
	case *Reserve:
		w.u32(uint32(v.Group))
		w.u32(uint32(v.From))
		w.u8(v.TTL)
	case *Progress:
		w.u32(uint32(v.Group))
		w.u32(uint32(v.Child))
		w.u32(uint32(v.Host))
		w.u64(uint64(v.Max))
	case *Heartbeat:
		w.u32(uint32(v.From))
		w.u64(v.Epoch)
	case *JoinReq:
		w.u32(uint32(v.Group))
		w.u32(uint32(v.Node))
		w.bytes([]byte(v.Addr))
		w.optSeq(uint64(v.Front))
	case *LeaveReq:
		w.u32(uint32(v.Group))
		w.u32(uint32(v.Node))
	case *RingUpdate:
		w.u32(uint32(v.Group))
		w.u64(v.Epoch)
		w.u32(uint32(v.Coord))
		w.u64(uint64(v.Baseline))
		w.u32(uint32(len(v.Members)))
		for _, m := range v.Members {
			w.u32(uint32(m.Node))
			w.bytes([]byte(m.Addr))
		}
		if v.Merge {
			w.u8(1)
		} else {
			w.u8(0)
		}
		w.optSeq(v.MergeTokenEpoch)
		w.u32(uint32(len(v.Resume)))
		for _, re := range v.Resume {
			w.u32(uint32(re.Node))
			w.u64(uint64(re.Front))
		}
	case *QuorumVote:
		w.u32(uint32(v.Group))
		w.u64(v.Epoch)
		w.u64(v.Base)
		w.u32(uint32(v.Proposer))
		w.u32(uint32(v.Voter))
		if v.Granted {
			w.u8(1)
		} else {
			w.u8(0)
		}
	case *RingSummary:
		w.u32(uint32(v.Group))
		w.u32(uint32(v.From))
		w.u64(v.Epoch)
		w.u64(uint64(v.Front))
		w.u64(v.OrderHash)
		w.u64(v.TokenEpoch)
		w.u64(v.TokenHops)
	case *MergeReq:
		w.u32(uint32(v.Group))
		w.u32(uint32(v.Node))
		w.bytes([]byte(v.Addr))
		w.u64(v.Epoch)
		w.u64(uint64(v.Front))
		w.u64(v.OrderHash)
		w.u64(v.TokenEpoch)
		w.u64(v.TokenHops)
	case *TimeSync:
		w.u8(v.Phase)
		w.u64(uint64(v.T1))
		w.u64(uint64(v.T2))
	case *Skip:
		w.u32(uint32(v.Group))
		w.u32(uint32(v.From))
		w.u64(v.Range.Min)
		w.u64(v.Range.Max)
		if v.Jump {
			w.u8(1)
		} else {
			w.u8(0)
		}
		w.optSeq(uint64(v.AckCum))
	default:
		panic(fmt.Sprintf("msg: cannot encode %T", m))
	}
	return w.buf
}

// Decode parses a message produced by Encode.
func Decode(buf []byte) (Message, error) {
	r := &reader{buf: buf}
	kind := Kind(r.u8())
	var m Message
	switch kind {
	case KindData:
		v := &Data{}
		v.Group = seq.GroupID(r.u32())
		v.SourceNode = seq.NodeID(r.u32())
		v.LocalSeq = seq.LocalSeq(r.u64())
		v.OrderingNode = seq.NodeID(r.u32())
		v.GlobalSeq = seq.GlobalSeq(r.u64())
		v.AckCum = seq.GlobalSeq(r.optSeq())
		v.Payload = r.bytes()
		m = v
	case KindAck:
		m = decodeAckBody(r)
	case KindNack:
		v := &Nack{}
		v.Group = seq.GroupID(r.u32())
		v.From = seq.NodeID(r.u32())
		v.Range.Min = r.u64()
		v.Range.Max = r.u64()
		m = v
	case KindToken:
		v := &TokenMsg{}
		v.From = seq.NodeID(r.u32())
		var err error
		if v.Token, v.Delta, err = decodeToken(r, true); err != nil {
			return nil, err
		}
		m = v
	case KindTokenAck:
		v := &TokenAck{}
		v.From = seq.NodeID(r.uv32())
		v.Epoch = r.uv()
		v.Hops = r.uv()
		v.Next = seq.GlobalSeq(r.uv())
		switch r.u8() {
		case 0:
		case 1:
			v.Cum = decodeAckBody(r)
		default:
			if r.err == nil {
				r.err = fmt.Errorf("msg: TokenAck ack presence byte %d", r.buf[r.off-1])
			}
		}
		m = v
	case KindTokenRegen:
		v := &TokenRegen{}
		v.Origin = seq.NodeID(r.u32())
		v.From = seq.NodeID(r.u32())
		var err error
		if v.Token, _, err = decodeToken(r, false); err != nil {
			return nil, err
		}
		m = v
	case KindJoin:
		v := &Join{}
		v.Group = seq.GroupID(r.u32())
		v.Host = seq.HostID(r.u32())
		v.Node = seq.NodeID(r.u32())
		v.Batch = r.u32()
		v.Resume = seq.GlobalSeq(r.u64())
		m = v
	case KindLeave:
		v := &Leave{}
		v.Group = seq.GroupID(r.u32())
		v.Host = seq.HostID(r.u32())
		v.Node = seq.NodeID(r.u32())
		v.Failure = r.u8() == 1
		v.Batch = r.u32()
		m = v
	case KindHandoffNotify:
		v := &HandoffNotify{}
		v.Group = seq.GroupID(r.u32())
		v.Host = seq.HostID(r.u32())
		v.OldAP = seq.NodeID(r.u32())
		v.Delivered = seq.GlobalSeq(r.u64())
		m = v
	case KindReserve:
		v := &Reserve{}
		v.Group = seq.GroupID(r.u32())
		v.From = seq.NodeID(r.u32())
		v.TTL = r.u8()
		m = v
	case KindProgress:
		v := &Progress{}
		v.Group = seq.GroupID(r.u32())
		v.Child = seq.NodeID(r.u32())
		v.Host = seq.HostID(r.u32())
		v.Max = seq.GlobalSeq(r.u64())
		m = v
	case KindHeartbeat:
		m = &Heartbeat{From: seq.NodeID(r.u32()), Epoch: r.u64()}
	case KindJoinReq:
		v := &JoinReq{}
		v.Group = seq.GroupID(r.u32())
		v.Node = seq.NodeID(r.u32())
		v.Addr = string(r.bytes())
		v.Front = seq.GlobalSeq(r.optSeq())
		m = v
	case KindLeaveReq:
		v := &LeaveReq{}
		v.Group = seq.GroupID(r.u32())
		v.Node = seq.NodeID(r.u32())
		m = v
	case KindRingUpdate:
		v := &RingUpdate{}
		v.Group = seq.GroupID(r.u32())
		v.Epoch = r.u64()
		v.Coord = seq.NodeID(r.u32())
		v.Baseline = seq.GlobalSeq(r.u64())
		if n := int(r.u32()); n > 0 && r.err == nil {
			if n > len(r.buf) { // each member costs ≥ 8 bytes
				r.err = ErrTruncated
				return nil, r.err
			}
			v.Members = make([]MemberAddr, 0, n)
			for i := 0; i < n; i++ {
				ma := MemberAddr{Node: seq.NodeID(r.u32())}
				ma.Addr = string(r.bytes())
				v.Members = append(v.Members, ma)
			}
		}
		v.Merge = r.u8() == 1
		v.MergeTokenEpoch = r.optSeq()
		if n := int(r.u32()); n > 0 && r.err == nil {
			if n*12 > len(r.buf) {
				r.err = ErrTruncated
				return nil, r.err
			}
			v.Resume = make([]ResumeEntry, 0, n)
			for i := 0; i < n; i++ {
				re := ResumeEntry{Node: seq.NodeID(r.u32())}
				re.Front = seq.GlobalSeq(r.u64())
				v.Resume = append(v.Resume, re)
			}
		}
		m = v
	case KindQuorumVote:
		v := &QuorumVote{}
		v.Group = seq.GroupID(r.u32())
		v.Epoch = r.u64()
		v.Base = r.u64()
		v.Proposer = seq.NodeID(r.u32())
		v.Voter = seq.NodeID(r.u32())
		v.Granted = r.u8() == 1
		m = v
	case KindRingSummary:
		v := &RingSummary{}
		v.Group = seq.GroupID(r.u32())
		v.From = seq.NodeID(r.u32())
		v.Epoch = r.u64()
		v.Front = seq.GlobalSeq(r.u64())
		v.OrderHash = r.u64()
		v.TokenEpoch = r.u64()
		v.TokenHops = r.u64()
		m = v
	case KindMergeReq:
		v := &MergeReq{}
		v.Group = seq.GroupID(r.u32())
		v.Node = seq.NodeID(r.u32())
		v.Addr = string(r.bytes())
		v.Epoch = r.u64()
		v.Front = seq.GlobalSeq(r.u64())
		v.OrderHash = r.u64()
		v.TokenEpoch = r.u64()
		v.TokenHops = r.u64()
		m = v
	case KindTimeSync:
		v := &TimeSync{}
		v.Phase = r.u8()
		v.T1 = int64(r.u64())
		v.T2 = int64(r.u64())
		m = v
	case KindSkip:
		v := &Skip{}
		v.Group = seq.GroupID(r.u32())
		v.From = seq.NodeID(r.u32())
		v.Range.Min = r.u64()
		v.Range.Max = r.u64()
		v.Jump = r.u8() == 1
		v.AckCum = seq.GlobalSeq(r.optSeq())
		m = v
	default:
		return nil, fmt.Errorf("msg: unknown kind %d", kind)
	}
	if r.err != nil {
		return nil, r.err
	}
	return m, nil
}
