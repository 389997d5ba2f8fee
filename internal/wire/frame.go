// Package wire moves RingNet protocol messages over real UDP sockets —
// the step from event-driven simulation to real-time execution. The
// pieces compose bottom-up:
//
//   - frame.go:     datagram framing on top of internal/msg's binary codec
//     (group-tagged sections of protocol messages batched per
//     datagram, with per-peer datagram sequencing for
//     loss/reorder stats);
//   - transport.go: the UDP transport — one socket shared by every group a
//     daemon hosts, a group-refcounted peer table, per-peer and
//     per-group counters, group demultiplexing of inbound
//     sections, an optional deterministic loss/jitter injector
//     at the socket layer, clean shutdown;
//   - driver.go:    a real-time executor for the deterministic sim
//     scheduler, so the unmodified protocol core (its RTO
//     timers, token holds, ack-delay timers) runs against
//     the wall clock;
//   - outbox.go:    the daemon-wide per-peer batching outbox: outbound
//     traffic from every hosted group coalesces into shared
//     multi-section datagrams, so N groups do not mean N×
//     the datagrams; driver-goroutine-only, no locks;
//   - substrate.go: one group's core.Network over the shared outbox and
//     its only way to the network — a send from the local
//     node to a peer is an enqueue in the same call stack,
//     and admitting or retiring a peer updates the
//     transport's references in the same call;
//   - config.go:    the groups-first daemon config;
//   - report.go:    the per-group + daemon-aggregate status report
//     (schema v2);
//   - sink.go:      one group's delivery sink — the only place a delivery
//     is accounted (order hash and online order check,
//     delivered range and rate, latency, durable log and
//     dead-letter queue, delivery trace, the delivered
//     counter), driver-goroutine-only and bounded;
//   - group.go:     one hosted ring group: engine, substrate, membership
//     plane, delivery sink, workload, and convergence
//     barrier;
//   - daemon.go:    the federation orchestrator for cmd/ringnetd and the
//     multi-process harness: one transport + clock-sync and
//     one scheduler + driver per process, N groups demuxed
//     over them.
//
// The paper's local-scope retransmission machinery (transport.Sender,
// couriers, Nack repair, token recovery) is reused as-is; the real
// network supplies latency, jitter, loss, and reordering.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/msg"
	"repro/internal/seq"
)

// Datagram framing, version 7: a short header followed by group-tagged
// sections, each carrying length-prefixed encoded messages. Putting the
// group id in a per-section tag rather than the frame header is what
// lets one datagram carry traffic for many groups at once — the shared
// outbox coalesces every group's backlog for a peer into one socket
// write. Integers are canonical uvarints (msg.ReadUvarint) except the
// fixed magic, version and count bytes.
//
//	magic    u16  0x524E ("RN"), little-endian
//	version  u8   7
//	sections u8   section count (≥ 1)
//	from     uv   sender NodeID (≤ 32 bits)
//	seqno    uv   per-(sender→receiver) datagram sequence number
//	sections × {
//	    group  uv   destination group id (≤ 32 bits; 0 = transport-internal)
//	    count  u8   messages in this section (≥ 1)
//	    count × { len uv, len bytes of msg.Encode output }
//	}
//
// A one-group datagram around one 64 B-payload Data is then under 90
// bytes; version 4 spent a fixed 16-byte header, a 6-byte tag and a
// 4-byte length prefix on it, around a message of fixed-width fields.
// The version byte is what turns a mixed ring into ErrBadVersion at the
// first datagram instead of misread fields: 3 switched the ordering token
// to the run-chained varint layout (internal/seq wire.go), 4 added the
// token delta (internal/seq delta.go) and varint Ack/TokenAck, 5 made
// every message's integers and the frame's own header, tags and length
// prefixes varints, 6 dropped the per-section flags byte when the Done
// barrier's gossip became a message (msg.Done), and 7 gave msg.Done its
// Drained flag, so a finished ring exits on a message rather than a timer.
const (
	frameMagic   = 0x524E
	frameVersion = 7

	// fixedHeader is the magic, version and section-count bytes;
	// maxHeader adds the longest from and seqno varints. SendSections
	// plans datagrams against maxHeader, since the seqno is reserved
	// after the plan.
	fixedHeader = 2 + 1 + 1
	maxHeader   = fixedHeader + 5 + 10

	// MaxDatagram is the frame-size budget: safely under the 65507-byte
	// UDP payload ceiling, with headroom for the header.
	MaxDatagram = 60000

	// maxFrameMsgs is the per-section message cap imposed by the u8
	// count field; maxFrameSections is the per-datagram section cap
	// imposed by the u8 section count.
	maxFrameMsgs     = 255
	maxFrameSections = 255
)

// GroupControl is the reserved group id 0: sections tagged with it carry
// transport-internal traffic (clock sync) and never reach a protocol
// instance.
const GroupControl uint32 = 0

// Framing errors.
var (
	ErrBadMagic        = errors.New("wire: bad frame magic")
	ErrBadVersion      = errors.New("wire: unsupported frame version")
	ErrTruncated       = errors.New("wire: truncated frame")
	ErrOversize        = errors.New("wire: message exceeds datagram budget")
	ErrEmptyFrame      = errors.New("wire: empty frame")
	ErrEmptySection    = errors.New("wire: empty section")
	ErrTooManyMsgs     = errors.New("wire: too many messages for one section")
	ErrTooManySections = errors.New("wire: too many sections for one frame")
	ErrNonCanonical    = errors.New("wire: non-canonical frame encoding")
)

// Section is one group's slice of a datagram: its messages, tagged with
// the destination group id.
type Section struct {
	Group uint32
	Msgs  []msg.Message

	// sizes, when set, holds each message's encoded size as its sender
	// measured it (the shared outbox records the size the substrate's
	// send accounting charged), so planning a datagram sizes nothing
	// again. wireLen is the bytes a decoded section occupied in its
	// datagram, tag and length prefixes included.
	sizes   []int
	wireLen int
}

// Frame is one decoded datagram: the sender, its per-peer sequence
// number, and one section per destination group.
type Frame struct {
	From     seq.NodeID
	Seqno    uint64
	Sections []Section
}

// headerSize is the encoded size of a frame header from from with seqno.
func headerSize(from seq.NodeID, seqno uint64) int {
	return fixedHeader + msg.UvarintLen(uint64(from)) + msg.UvarintLen(seqno)
}

// tagSize is the encoded size of a section tag for group.
func tagSize(group uint32) int { return msg.UvarintLen(uint64(group)) + 1 }

// framedSize is the bytes a message of n encoded bytes occupies in a
// section: its length prefix and itself.
func framedSize(n int) int { return msg.UvarintLen(uint64(n)) + n }

// sectionBytes is one section's encoded size: tag plus length-prefixed
// messages.
func sectionBytes(s Section) int {
	n := tagSize(s.Group)
	for i, m := range s.Msgs {
		if s.sizes != nil {
			n += framedSize(s.sizes[i])
		} else {
			n += framedSize(m.WireSize())
		}
	}
	return n
}

// frameSize returns the encoded size of a frame carrying secs.
func frameSize(from seq.NodeID, seqno uint64, secs []Section) int {
	n := headerSize(from, seqno)
	for _, s := range secs {
		n += sectionBytes(s)
	}
	return n
}

// EncodeFrame serializes one datagram carrying secs from from. A frame
// needs at least one section, and a section at least one message. The
// caller is responsible for keeping the result under the transport's
// datagram budget; EncodeFrame only enforces the structural count limits.
func EncodeFrame(from seq.NodeID, seqno uint64, secs []Section) ([]byte, error) {
	return encodeFrame(from, seqno, secs, frameSize(from, seqno, secs))
}

// encodeFrame is EncodeFrame for a caller that already knows the frame's
// encoded size (SendSections sizes every message once, while planning).
// The size only reserves capacity: each length prefix is written from the
// bytes the message actually encoded to.
func encodeFrame(from seq.NodeID, seqno uint64, secs []Section, size int) ([]byte, error) {
	if len(secs) == 0 {
		return nil, ErrEmptyFrame
	}
	if len(secs) > maxFrameSections {
		return nil, ErrTooManySections
	}
	for _, s := range secs {
		if len(s.Msgs) == 0 {
			return nil, ErrEmptySection
		}
		if len(s.Msgs) > maxFrameMsgs {
			return nil, ErrTooManyMsgs
		}
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint16(buf, frameMagic)
	buf = append(buf, frameVersion, byte(len(secs)))
	buf = binary.AppendUvarint(buf, uint64(from))
	buf = binary.AppendUvarint(buf, seqno)
	for _, s := range secs {
		buf = binary.AppendUvarint(buf, uint64(s.Group))
		buf = append(buf, byte(len(s.Msgs)))
		for _, m := range s.Msgs {
			// Encode in place behind a one-byte length prefix — enough
			// below 128 bytes — and widen the prefix for a longer message.
			at := len(buf)
			buf = msg.AppendEncode(append(buf, 0), m)
			n := len(buf) - at - 1
			if k := msg.UvarintLen(uint64(n)); k > 1 {
				buf = append(buf, make([]byte, k-1)...)
				copy(buf[at+k:], buf[at+1:at+1+n])
			}
			binary.PutUvarint(buf[at:], uint64(n))
		}
	}
	return buf, nil
}

// frameReader walks a datagram, latching the first error.
type frameReader struct {
	buf []byte
	off int
	err error
}

func (r *frameReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *frameReader) u8() uint8 {
	if r.err != nil || r.off >= len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	r.off++
	return r.buf[r.off-1]
}

// uv reads a canonical uvarint of at most bits bits.
func (r *frameReader) uv(bits int) uint64 {
	if r.err != nil {
		return 0
	}
	v, n, err := msg.ReadUvarint(r.buf[r.off:])
	switch {
	case errors.Is(err, msg.ErrTruncated):
		r.fail(ErrTruncated)
	case err != nil || bits < 64 && v>>bits != 0:
		r.fail(fmt.Errorf("%w: varint at byte %d", ErrNonCanonical, r.off))
	}
	if r.err != nil {
		return 0
	}
	r.off += n
	return v
}

// DecodeFrame parses one datagram. A version other than frameVersion is
// rejected with an error naming both versions, so a mixed-version
// deployment fails loudly instead of corrupting state. It accepts exactly
// the bytes EncodeFrame writes: a padded or oversized varint, or bytes
// after the last section, are refused.
func DecodeFrame(buf []byte) (Frame, error) {
	var f Frame
	if len(buf) < fixedHeader+2 {
		return f, ErrTruncated
	}
	if binary.LittleEndian.Uint16(buf) != frameMagic {
		return f, ErrBadMagic
	}
	if buf[2] != frameVersion {
		return f, fmt.Errorf("%w: got v%d, this node speaks v%d", ErrBadVersion, buf[2], frameVersion)
	}
	sections := int(buf[3])
	if sections == 0 {
		return f, ErrEmptyFrame
	}
	r := frameReader{buf: buf, off: fixedHeader}
	f.From = seq.NodeID(r.uv(32))
	f.Seqno = r.uv(64)
	if r.err != nil {
		return f, r.err
	}
	f.Sections = make([]Section, 0, sections)
	for si := 0; si < sections; si++ {
		start := r.off
		s := Section{Group: uint32(r.uv(32))}
		count := int(r.u8())
		if r.err != nil {
			return f, r.err
		}
		if count == 0 {
			return f, ErrEmptySection
		}
		s.Msgs = make([]msg.Message, 0, count)
		for i := 0; i < count; i++ {
			n := r.uv(64)
			if r.err == nil && n > uint64(len(buf)-r.off) {
				r.fail(ErrTruncated)
			}
			if r.err != nil {
				return f, r.err
			}
			m, err := msg.Decode(buf[r.off : r.off+int(n)])
			if err != nil {
				return f, fmt.Errorf("wire: section %d message %d: %w", si, i, err)
			}
			s.Msgs = append(s.Msgs, m)
			r.off += int(n)
		}
		s.wireLen = r.off - start
		f.Sections = append(f.Sections, s)
	}
	if r.off != len(buf) {
		return f, fmt.Errorf("%w: %d trailing bytes after frame", ErrNonCanonical, len(buf)-r.off)
	}
	return f, nil
}
