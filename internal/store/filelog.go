package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/seq"
	"repro/internal/telemetry"
)

// Telemetry is the log's optional live instrumentation: append and
// fsync latency distributions plus the segment-roll count. All fields
// are nil-safe instruments; the zero value is inert and the append path
// reads the wall clock only when a histogram is attached.
type Telemetry struct {
	AppendSeconds *telemetry.Histogram
	SyncSeconds   *telemetry.Histogram
	SegmentRolls  *telemetry.Counter
}

// FileLog persists the delivered stream as CRC-framed records in
// rolling append-only segments under one directory. Appends go through
// a buffered writer; durability is batched — the caller (the wire
// group's flush timer) invokes Sync on its flush interval, trading a
// bounded window of re-deliverable tail for not paying an fsync per
// message. Recovery scans the segments in order, truncates the first
// torn or corrupt record and discards everything after it, so the log
// always reopens to a consistent prefix of the total order.
//
// Each segment is a recFile (recfile.go owns the framing) with magic
// "GLOG" and this record body, little-endian:
//
//	body:    global u64 | source u32 | local u64 | payload …
//
// Segment files are named seg-%08d.rlog in creation order; a segment
// rolls once it exceeds SegmentBytes.
type FileLog struct {
	mu      sync.Mutex
	dir     string
	segMax  int64
	rf      *recFile // active segment; nil once closed
	size    int64
	segIdx  int
	front   seq.GlobalSeq
	recov   seq.GlobalSeq // front as recovered at open, before new appends
	dups    uint64
	appends uint64
	tel     Telemetry
}

// SetTelemetry attaches live instruments; safe before first use.
func (l *FileLog) SetTelemetry(t Telemetry) {
	l.mu.Lock()
	l.tel = t
	l.mu.Unlock()
}

const (
	logMagic   = 0x474C4F47 // "GLOG"
	recBodyMin = 8 + 4 + 8
	logBufSize = 1 << 16

	// DefaultSegmentBytes rolls segments at 8 MB — small enough that
	// the DLQ CLI and recovery touch bounded files, large enough that
	// a steady 200 Hz stream rolls rarely.
	DefaultSegmentBytes = 8 << 20
)

// FileLogOptions tune a FileLog; zero values take defaults.
type FileLogOptions struct {
	// SegmentBytes rolls the active segment once it exceeds this size.
	SegmentBytes int64
}

// OpenFileLog opens (creating if needed) the delivery log in dir,
// recovering the durable prefix: every segment is scanned in order,
// and the first torn or corrupt record truncates the log there —
// the rest of that segment and all later segments are discarded.
func OpenFileLog(dir string, opts FileLogOptions) (*FileLog, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &FileLog{dir: dir, segMax: opts.SegmentBytes}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	// Scan forward; on the first bad record, truncate that segment at
	// the last good offset and drop every later segment.
	for i, s := range segs {
		// Globals at or below the front (duplicates re-appended across a
		// crash window) leave it alone, matching Append's dedup rule.
		good, err := walkSegment(filepath.Join(dir, s.name), func(r Record) error {
			if r.Global > l.front {
				l.front = r.Global
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		l.segIdx = s.idx
		if good >= 0 { // torn/corrupt tail: truncate here, drop the rest
			if err := os.Truncate(filepath.Join(dir, s.name), good); err != nil {
				return nil, err
			}
			for _, later := range segs[i+1:] {
				if err := os.Remove(filepath.Join(dir, later.name)); err != nil {
					return nil, err
				}
			}
			break
		}
	}
	l.recov = l.front
	// Append into the last surviving segment, or start a fresh one. A
	// segment truncated below its own header cannot take appends (they
	// would be discarded by the next recovery) — drop it and roll.
	if l.segIdx > 0 {
		path := filepath.Join(dir, segName(l.segIdx))
		if st, serr := os.Stat(path); serr == nil && st.Size() >= segHdrLen {
			if l.rf, l.size, err = openRecFile(path, 0, logMagic, logBufSize); err != nil {
				return nil, err
			}
		} else if err := os.Remove(path); err != nil {
			return nil, err
		}
	}
	if l.rf == nil {
		if err := l.roll(); err != nil {
			return nil, err
		}
	}
	return l, nil
}

type segRef struct {
	name string
	idx  int
}

func segName(idx int) string { return fmt.Sprintf("seg-%08d.rlog", idx) }

func listSegments(dir string) ([]segRef, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segRef
	for _, e := range ents {
		var idx int
		if n, _ := fmt.Sscanf(e.Name(), "seg-%08d.rlog", &idx); n == 1 && e.Name() == segName(idx) {
			segs = append(segs, segRef{e.Name(), idx})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].idx < segs[j].idx })
	return segs, nil
}

// walkSegment calls fn for every valid record, stopping silently at
// the first torn or corrupt one (recovery semantics) and returning its
// offset as scanFrames does.
func walkSegment(path string, fn func(Record) error) (truncAt int64, err error) {
	return scanFile(path, logMagic, func(body []byte) error {
		var r Record
		if !r.parseBody(body) {
			return errBadBody
		}
		return fn(r)
	})
}

func (r Record) putBody(body []byte) {
	binary.LittleEndian.PutUint64(body[0:8], uint64(r.Global))
	binary.LittleEndian.PutUint32(body[8:12], uint32(r.Source))
	binary.LittleEndian.PutUint64(body[12:20], uint64(r.Local))
	copy(body[recBodyMin:], r.Payload)
}

// parseBody decodes a record body; Payload aliases body.
func (r *Record) parseBody(body []byte) bool {
	if len(body) < recBodyMin {
		return false
	}
	r.Global = seq.GlobalSeq(binary.LittleEndian.Uint64(body[0:8]))
	r.Source = seq.NodeID(binary.LittleEndian.Uint32(body[8:12]))
	r.Local = seq.LocalSeq(binary.LittleEndian.Uint64(body[12:20]))
	if len(body) > recBodyMin {
		r.Payload = body[recBodyMin:]
	}
	return true
}

func appendRecord(buf []byte, r Record) []byte {
	return appendFrame(buf, recBodyMin+len(r.Payload), r.putBody)
}

// roll flushes and fsyncs the active segment and starts the next one.
func (l *FileLog) roll() error {
	if l.rf != nil {
		if err := l.rf.close(); err != nil {
			return err
		}
	}
	l.segIdx++
	rf, size, err := openRecFile(filepath.Join(l.dir, segName(l.segIdx)), os.O_EXCL, logMagic, logBufSize)
	if err != nil {
		return err
	}
	l.rf, l.size = rf, size
	l.tel.SegmentRolls.Inc()
	return nil
}

// Append implements DeliveryLog. The write lands in the buffer; it is
// durable only after the next Sync (or segment roll).
func (l *FileLog) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rf == nil {
		return errors.New("store: append on closed log")
	}
	if r.Global == 0 {
		return fmt.Errorf("store: append global 0")
	}
	if r.Global <= l.front {
		l.dups++
		return nil
	}
	var t0 time.Time
	if l.tel.AppendSeconds != nil {
		t0 = time.Now()
	}
	frame := appendRecord(nil, r)
	if err := l.rf.write(frame); err != nil {
		return err
	}
	l.front = r.Global
	l.size += int64(len(frame))
	l.appends++
	if l.size >= l.segMax {
		if err := l.roll(); err != nil {
			return err
		}
	}
	if l.tel.AppendSeconds != nil {
		l.tel.AppendSeconds.ObserveSince(t0)
	}
	return nil
}

// Front implements DeliveryLog.
func (l *FileLog) Front() seq.GlobalSeq {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.front
}

// RecoveredFront is the durable position found at open time, before
// any new appends — the front a restarting member offers in its
// JoinReq.
func (l *FileLog) RecoveredFront() seq.GlobalSeq {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recov
}

// Sync implements DeliveryLog: flush the buffer and fsync the active
// segment. Cheap when nothing was appended since the last call.
func (l *FileLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *FileLog) syncLocked() error {
	if l.rf == nil || !l.rf.dirty {
		return nil
	}
	var t0 time.Time
	if l.tel.SyncSeconds != nil {
		t0 = time.Now()
	}
	if err := l.rf.sync(); err != nil {
		return err
	}
	if l.tel.SyncSeconds != nil {
		l.tel.SyncSeconds.ObserveSince(t0)
	}
	return nil
}

// Replay implements DeliveryLog: flush buffered appends, then walk
// every record on disk in order (skipping cross-segment duplicates).
func (l *FileLog) Replay(fn func(Record) error) error {
	l.mu.Lock()
	if l.rf != nil {
		if err := l.rf.flush(); err != nil {
			l.mu.Unlock()
			return err
		}
	}
	dir := l.dir
	l.mu.Unlock()
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	var front seq.GlobalSeq
	for _, s := range segs {
		_, err := walkSegment(filepath.Join(dir, s.name), func(r Record) error {
			if r.Global <= front {
				return nil
			}
			front = r.Global
			return fn(r)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Duplicates implements DeliveryLog.
func (l *FileLog) Duplicates() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dups
}

// Appends reports how many records were accepted since open.
func (l *FileLog) Appends() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends
}

// Close implements DeliveryLog: a final Sync, then release the file.
func (l *FileLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rf == nil {
		return nil
	}
	err := l.syncLocked()
	if cerr := l.rf.close(); err == nil {
		err = cerr
	}
	l.rf = nil
	return err
}
