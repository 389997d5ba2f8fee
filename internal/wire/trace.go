package wire

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/msg"
	"repro/internal/telemetry"
)

// A trace dump is the NDJSON artifact one member serves at /trace and
// writes to Config.SpanPath on exit: one TraceHeader line carrying the
// member's identity and its NTP-lite peer clock offsets, then the
// retained spans oldest first. The offsets are what lets the stitcher
// (cmd/ringnet-trace) place spans from different processes on one
// timeline: a local timestamp t maps to peer p's clock as
// t + offsets_ns[p], since each offset estimates remote minus local.

// TraceHeader is the first line of a trace dump.
type TraceHeader struct {
	Node   uint32 `json:"node"`
	WallNS int64  `json:"wall_ns"`
	// OffsetsNS maps peer node id to the estimated clock offset (remote
	// minus local) in nanoseconds, from the clock-sync exchange.
	OffsetsNS map[uint32]int64 `json:"offsets_ns,omitempty"`
	// RTTNS maps peer node id to the round-trip estimate backing the
	// offset — the clock-sync error bound for that peer.
	RTTNS map[uint32]int64 `json:"rtt_ns,omitempty"`
}

// writeTraceDump renders the member's trace dump: header, then spans.
func writeTraceDump(w io.Writer, nt *nodeTelemetry, tr *Transport) error {
	hdr := TraceHeader{Node: nt.node, WallNS: nt.clock.Now()}
	if tr != nil {
		offs := tr.PeerOffsets()
		if len(offs) > 0 {
			hdr.OffsetsNS = make(map[uint32]int64, len(offs))
			hdr.RTTNS = make(map[uint32]int64, len(offs))
			for id, po := range offs {
				hdr.OffsetsNS[uint32(id)] = po.Offset.Nanoseconds()
				hdr.RTTNS[uint32(id)] = po.RTT.Nanoseconds()
			}
		}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(&hdr); err != nil {
		return err
	}
	return nt.tracer.WriteNDJSON(w)
}

// ParseTraceDump reads one member's trace dump: the header line, then
// every span. Blank lines are tolerated; anything else malformed is an
// error.
func ParseTraceDump(r io.Reader) (TraceHeader, []telemetry.Span, error) {
	var hdr TraceHeader
	var spans []telemetry.Span
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if first {
			if err := json.Unmarshal(line, &hdr); err != nil {
				return hdr, nil, fmt.Errorf("trace dump header: %w", err)
			}
			first = false
			continue
		}
		var sp telemetry.Span
		if err := json.Unmarshal(line, &sp); err != nil {
			return hdr, nil, fmt.Errorf("trace dump span %d: %w", len(spans), err)
		}
		spans = append(spans, sp)
	}
	if err := sc.Err(); err != nil {
		return hdr, nil, err
	}
	if first {
		return hdr, nil, fmt.Errorf("trace dump: empty input")
	}
	return hdr, spans, nil
}

// traceKeyOf extracts the trace key from a wire message, reporting
// whether the message carries one (only Data bodies do — the trace key
// is the message's protocol identity, never an added field).
func traceKeyOf(m msg.Message) (source uint32, local, global uint64, ok bool) {
	if d, ok := m.(*msg.Data); ok {
		return uint32(d.SourceNode), uint64(d.LocalSeq), uint64(d.GlobalSeq), true
	}
	return 0, 0, 0, false
}
