package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
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
// On-disk format, per segment (little-endian throughout):
//
//	header:  magic "GLOG" (4B) | version u32
//	record:  bodyLen u32 | crc32c(body) u32 | body
//	body:    global u64 | source u32 | local u64 | payload …
//
// Segment files are named seg-%08d.rlog in creation order; a segment
// rolls once it exceeds SegmentBytes.
type FileLog struct {
	mu      sync.Mutex
	dir     string
	segMax  int64
	f       *os.File
	w       *bufio.Writer
	size    int64
	segIdx  int
	front   seq.GlobalSeq
	recov   seq.GlobalSeq // front as recovered at open, before new appends
	dups    uint64
	dirty   bool
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
	logVersion = 1
	segHdrLen  = 8
	recHdrLen  = 8
	recBodyMin = 8 + 4 + 8
	// recBodyMax bounds a single record body so a corrupt length field
	// cannot drive recovery into a multi-GB allocation.
	recBodyMax = 1 << 26

	// DefaultSegmentBytes rolls segments at 8 MB — small enough that
	// the DLQ CLI and recovery touch bounded files, large enough that
	// a steady 200 Hz stream rolls rarely.
	DefaultSegmentBytes = 8 << 20
)

var crcTab = crc32.MakeTable(crc32.Castagnoli)

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
		good, front, err := scanSegment(filepath.Join(dir, s.name), l.front)
		if err != nil {
			return nil, err
		}
		l.front = front
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
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, err
			}
			l.f, l.w, l.size = f, bufio.NewWriterSize(f, 1<<16), st.Size()
		} else if err := os.Remove(path); err != nil {
			return nil, err
		}
	}
	if l.f == nil {
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

// scanSegment validates path record by record. It returns the offset
// to truncate at (-1 if the whole segment is sound) and the highest
// global seen; records at or below prevFront (duplicates re-appended
// across a crash window) are skipped, matching Append's dedup rule.
func scanSegment(path string, prevFront seq.GlobalSeq) (truncAt int64, front seq.GlobalSeq, err error) {
	front = prevFront
	f, err := os.Open(path)
	if err != nil {
		return -1, front, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	var hdr [segHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, front, nil // header torn: truncate to empty
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != logMagic ||
		binary.LittleEndian.Uint32(hdr[4:8]) != logVersion {
		return 0, front, nil
	}
	off := int64(segHdrLen)
	for {
		rec, n, ok := readRecord(r)
		if !ok {
			if n == 0 {
				return -1, front, nil // clean EOF
			}
			return off, front, nil // torn or corrupt: truncate here
		}
		off += n
		if rec.Global > front {
			front = rec.Global
		}
	}
}

// readRecord decodes one frame. ok=false with n=0 means clean EOF;
// ok=false with n>0 means a torn or corrupt record was detected.
func readRecord(r *bufio.Reader) (rec Record, n int64, ok bool) {
	var hdr [recHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return rec, 0, false
		}
		return rec, 1, false // partial header: torn
	}
	bodyLen := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if bodyLen < recBodyMin || bodyLen > recBodyMax {
		return rec, 1, false
	}
	body := make([]byte, bodyLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return rec, 1, false
	}
	if crc32.Checksum(body, crcTab) != want {
		return rec, 1, false
	}
	rec.Global = seq.GlobalSeq(binary.LittleEndian.Uint64(body[0:8]))
	rec.Source = seq.NodeID(binary.LittleEndian.Uint32(body[8:12]))
	rec.Local = seq.LocalSeq(binary.LittleEndian.Uint64(body[12:20]))
	if bodyLen > recBodyMin {
		rec.Payload = body[recBodyMin:]
	}
	return rec, int64(recHdrLen) + int64(bodyLen), true
}

func appendRecord(buf []byte, r Record) []byte {
	bodyLen := recBodyMin + len(r.Payload)
	start := len(buf)
	buf = append(buf, make([]byte, recHdrLen+bodyLen)...)
	body := buf[start+recHdrLen:]
	binary.LittleEndian.PutUint64(body[0:8], uint64(r.Global))
	binary.LittleEndian.PutUint32(body[8:12], uint32(r.Source))
	binary.LittleEndian.PutUint64(body[12:20], uint64(r.Local))
	copy(body[recBodyMin:], r.Payload)
	binary.LittleEndian.PutUint32(buf[start:], uint32(bodyLen))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(body, crcTab))
	return buf
}

// roll flushes and fsyncs the active segment and starts the next one.
func (l *FileLog) roll() error {
	if l.f != nil {
		if err := l.w.Flush(); err != nil {
			return err
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return err
		}
	}
	l.segIdx++
	f, err := os.OpenFile(filepath.Join(l.dir, segName(l.segIdx)),
		os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	var hdr [segHdrLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], logMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], logVersion)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	l.f, l.w, l.size = f, bufio.NewWriterSize(f, 1<<16), segHdrLen
	l.tel.SegmentRolls.Inc()
	return nil
}

// Append implements DeliveryLog. The write lands in the buffer; it is
// durable only after the next Sync (or segment roll).
func (l *FileLog) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
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
	if _, err := l.w.Write(frame); err != nil {
		return err
	}
	l.front = r.Global
	l.size += int64(len(frame))
	l.dirty = true
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
	if l.f == nil || !l.dirty {
		return nil
	}
	var t0 time.Time
	if l.tel.SyncSeconds != nil {
		t0 = time.Now()
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.dirty = false
	if l.tel.SyncSeconds != nil {
		l.tel.SyncSeconds.ObserveSince(t0)
	}
	return nil
}

// Replay implements DeliveryLog: flush buffered appends, then walk
// every record on disk in order (skipping cross-segment duplicates).
func (l *FileLog) Replay(fn func(Record) error) error {
	l.mu.Lock()
	if l.f != nil {
		if err := l.w.Flush(); err != nil {
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
		err := walkSegment(filepath.Join(dir, s.name), func(r Record) error {
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

// walkSegment calls fn for every valid record, stopping silently at
// the first torn or corrupt one (recovery semantics).
func walkSegment(path string, fn func(Record) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	var hdr [segHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != logMagic ||
		binary.LittleEndian.Uint32(hdr[4:8]) != logVersion {
		return nil
	}
	for {
		rec, _, ok := readRecord(r)
		if !ok {
			return nil
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
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
	if l.f == nil {
		return nil
	}
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	l.w = nil
	return err
}
