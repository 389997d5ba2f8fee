package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"repro/internal/seq"
	"repro/internal/telemetry"
)

// DLQ is the per-member dead-letter queue: slots the really-lost rule
// condemned (source evicted, give-up rounds exhausted — see
// internal/core/ordering.go) are recorded here instead of vanishing
// into a silent InsertLost. An entry is a tombstone — the body is gone
// by definition; what the queue preserves is the slot's identity in
// the total order plus why it was written off, so an operator can
// audit exactly which positions a member skipped and reconcile them
// out of band (cmd/ringnet-dlq).
//
// The queue is one CRC-framed append-only file (dlq.rlog, a recFile
// with magic "QDLQ") plus a replay cursor (dlq.cursor, written
// atomically via rename): Replay emits entries past the cursor and
// advances it, so re-running a replay is idempotent; Purge removes both.
type DLQ struct {
	mu     sync.Mutex
	dir    string
	rf     *recFile // nil once closed
	count  int
	cursor int
	depth  *telemetry.Gauge // live tombstone count; nil-safe
}

// SetDepthGauge attaches a live gauge tracking the entry count; it is
// primed with the recovered count and follows every Add and Purge.
func (q *DLQ) SetDepthGauge(g *telemetry.Gauge) {
	q.mu.Lock()
	q.depth = g
	g.Set(int64(q.count))
	q.mu.Unlock()
}

// DLQEntry is one condemned slot.
type DLQEntry struct {
	Global seq.GlobalSeq
	Source seq.NodeID
	Local  seq.LocalSeq
	// Reason says which really-lost tier condemned the slot
	// ("give-up", "front-gap", "skip").
	Reason string
	// WallNS is the wall-clock time the verdict was reached.
	WallNS int64
}

const (
	dlqMagic   = 0x514C4451 // "QDLQ"
	dlqFile    = "dlq.rlog"
	dlqCursor  = "dlq.cursor"
	dlqBodyMin = 8 + 4 + 8 + 8 + 2
	dlqBufSize = 1 << 14
)

// OpenDLQ opens (creating if needed) the dead-letter queue in dir,
// recovering its consistent prefix with the same torn-tail truncation
// rule as the delivery log.
func OpenDLQ(dir string) (*DLQ, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	q := &DLQ{dir: dir}
	path := filepath.Join(dir, dlqFile)
	truncAt, err := scanDLQ(path, func(DLQEntry) { q.count++ })
	if err != nil {
		return nil, err
	}
	if truncAt >= 0 { // torn tail, or a torn header openRecFile rewrites
		if err := os.Truncate(path, truncAt); err != nil {
			return nil, err
		}
	}
	if q.rf, _, err = openRecFile(path, 0, dlqMagic, dlqBufSize); err != nil {
		return nil, err
	}
	if cur, err := os.ReadFile(filepath.Join(dir, dlqCursor)); err == nil {
		if n, err := strconv.Atoi(strings.TrimSpace(string(cur))); err == nil && n >= 0 {
			q.cursor = n
		}
	}
	if q.cursor > q.count {
		q.cursor = q.count
	}
	return q, nil
}

// scanDLQ hands every valid entry of the queue file to fn and returns
// the truncation offset for a torn tail (-1 when the file is sound or
// absent).
func scanDLQ(path string, fn func(DLQEntry)) (truncAt int64, err error) {
	truncAt, err = scanFile(path, dlqMagic, func(body []byte) error {
		var e DLQEntry
		if !e.parseBody(body) {
			return errBadBody
		}
		fn(e)
		return nil
	})
	if os.IsNotExist(err) {
		return -1, nil
	}
	return truncAt, err
}

func (e DLQEntry) putBody(body []byte) {
	binary.LittleEndian.PutUint64(body[0:8], uint64(e.Global))
	binary.LittleEndian.PutUint32(body[8:12], uint32(e.Source))
	binary.LittleEndian.PutUint64(body[12:20], uint64(e.Local))
	binary.LittleEndian.PutUint64(body[20:28], uint64(e.WallNS))
	binary.LittleEndian.PutUint16(body[28:30], uint16(len(e.Reason)))
	copy(body[30:], e.Reason)
}

func (e *DLQEntry) parseBody(body []byte) bool {
	if len(body) < dlqBodyMin {
		return false
	}
	rl := int(binary.LittleEndian.Uint16(body[28:30]))
	if 30+rl > len(body) {
		return false
	}
	e.Global = seq.GlobalSeq(binary.LittleEndian.Uint64(body[0:8]))
	e.Source = seq.NodeID(binary.LittleEndian.Uint32(body[8:12]))
	e.Local = seq.LocalSeq(binary.LittleEndian.Uint64(body[12:20]))
	e.WallNS = int64(binary.LittleEndian.Uint64(body[20:28]))
	e.Reason = string(body[30 : 30+rl])
	return true
}

func appendDLQEntry(buf []byte, e DLQEntry) []byte {
	if len(e.Reason) > 1<<15 {
		e.Reason = e.Reason[:1<<15]
	}
	return appendFrame(buf, dlqBodyMin+len(e.Reason), e.putBody)
}

// Add appends one condemned slot; durable after the next Sync.
func (q *DLQ) Add(e DLQEntry) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.rf == nil {
		return errors.New("store: add on closed dlq")
	}
	if err := q.rf.write(appendDLQEntry(nil, e)); err != nil {
		return err
	}
	q.count++
	q.depth.Set(int64(q.count))
	return nil
}

// Sync flushes and fsyncs pending entries.
func (q *DLQ) Sync() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.rf == nil {
		return nil
	}
	return q.rf.sync()
}

// Len reports the number of entries in the queue.
func (q *DLQ) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.count
}

// Cursor reports how many entries have already been replayed.
func (q *DLQ) Cursor() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.cursor
}

// Entries reads every entry from disk (flushing pending writes first).
func (q *DLQ) Entries() ([]DLQEntry, error) {
	q.mu.Lock()
	if q.rf != nil {
		if err := q.rf.flush(); err != nil {
			q.mu.Unlock()
			return nil, err
		}
	}
	dir := q.dir
	q.mu.Unlock()
	var out []DLQEntry
	_, err := scanDLQ(filepath.Join(dir, dlqFile), func(e DLQEntry) { out = append(out, e) })
	return out, err
}

// Replay emits every entry past the replay cursor, then durably
// advances the cursor past them, so running a replay twice emits
// nothing the second time. It returns how many entries were emitted.
func (q *DLQ) Replay(fn func(DLQEntry) error) (int, error) {
	ents, err := q.Entries()
	if err != nil {
		return 0, err
	}
	q.mu.Lock()
	cur := q.cursor
	q.mu.Unlock()
	if cur > len(ents) {
		cur = len(ents)
	}
	emitted := 0
	for _, e := range ents[cur:] {
		if err := fn(e); err != nil {
			return emitted, err
		}
		emitted++
	}
	if emitted > 0 {
		if err := q.setCursor(cur + emitted); err != nil {
			return emitted, err
		}
	}
	return emitted, nil
}

func (q *DLQ) setCursor(n int) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	tmp := filepath.Join(q.dir, dlqCursor+".tmp")
	if err := os.WriteFile(tmp, []byte(fmt.Sprintf("%d\n", n)), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(q.dir, dlqCursor)); err != nil {
		return err
	}
	q.cursor = n
	return nil
}

// Purge removes every entry and the replay cursor. The queue stays
// usable: the next Add starts a fresh file.
func (q *DLQ) Purge() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.rf != nil {
		err := q.rf.close()
		q.rf = nil
		if err != nil {
			return err
		}
	}
	if err := os.Remove(filepath.Join(q.dir, dlqFile)); err != nil && !os.IsNotExist(err) {
		return err
	}
	if err := os.Remove(filepath.Join(q.dir, dlqCursor)); err != nil && !os.IsNotExist(err) {
		return err
	}
	rf, _, err := openRecFile(filepath.Join(q.dir, dlqFile), 0, dlqMagic, dlqBufSize)
	if err != nil {
		return err
	}
	q.rf = rf
	q.count, q.cursor = 0, 0
	q.depth.Set(0)
	return nil
}

// Close flushes, fsyncs, and releases the queue file.
func (q *DLQ) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.rf == nil {
		return nil
	}
	err := q.rf.close()
	q.rf = nil
	return err
}
