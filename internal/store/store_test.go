package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/seq"
)

// mkRecord builds a deterministic record for global g.
func mkRecord(g uint64) Record {
	return Record{
		Global:  seq.GlobalSeq(g),
		Source:  seq.NodeID(g%4 + 1),
		Local:   seq.LocalSeq(g/4 + 1),
		Payload: []byte(fmt.Sprintf("payload-%06d", g)),
	}
}

// fill appends globals [1..n] and syncs.
func fill(t *testing.T, l DeliveryLog, n int) {
	t.Helper()
	for g := 1; g <= n; g++ {
		if err := l.Append(mkRecord(uint64(g))); err != nil {
			t.Fatalf("append %d: %v", g, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
}

// collect replays the log into a slice.
func collect(t *testing.T, l DeliveryLog) []Record {
	t.Helper()
	var out []Record
	if err := l.Replay(func(r Record) error {
		cp := r
		cp.Payload = append([]byte(nil), r.Payload...)
		out = append(out, cp)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

// assertPrefix checks that recs is exactly records 1..k for some k and
// returns k — the consistent-prefix recovery invariant.
func assertPrefix(t *testing.T, recs []Record) int {
	t.Helper()
	for i, r := range recs {
		want := mkRecord(uint64(i + 1))
		if r.Global != want.Global || r.Source != want.Source ||
			r.Local != want.Local || !bytes.Equal(r.Payload, want.Payload) {
			t.Fatalf("record %d: got {%d %d %d %q}, want {%d %d %d %q}",
				i, r.Global, r.Source, r.Local, r.Payload,
				want.Global, want.Source, want.Local, want.Payload)
		}
	}
	return len(recs)
}

// lastSegment returns the path of the highest-numbered segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listSegments: %v (%d segs)", err, len(segs))
	}
	return filepath.Join(dir, segs[len(segs)-1].name)
}

func firstSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listSegments: %v (%d segs)", err, len(segs))
	}
	return filepath.Join(dir, segs[0].name)
}

// flipByteAt XORs one byte of the file at offset from the end.
func flipByteAt(t *testing.T, path string, fromEnd int64) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(b)) <= fromEnd {
		t.Fatalf("file %s too short (%d) to flip at -%d", path, len(b), fromEnd)
	}
	b[int64(len(b))-1-fromEnd] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func truncateBy(t *testing.T, path string, n int64) {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-n); err != nil {
		t.Fatal(err)
	}
}

// TestFileLogMatchesMemLog drives FileLog and the in-memory reference
// through the same appends (including duplicates and a gap) and
// checks identical replay, fronts, and duplicate counts.
func TestFileLogMatchesMemLog(t *testing.T) {
	dir := t.TempDir()
	fl, err := OpenFileLog(dir, FileLogOptions{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	ml := NewMemLog()
	feed := func(g uint64) {
		r := mkRecord(g)
		if err := fl.Append(r); err != nil {
			t.Fatalf("filelog append %d: %v", g, err)
		}
		if err := ml.Append(r); err != nil {
			t.Fatalf("memlog append %d: %v", g, err)
		}
	}
	for g := uint64(1); g <= 100; g++ {
		feed(g)
	}
	feed(50)  // duplicate: dropped by both
	feed(100) // duplicate at front
	feed(200) // gap: fresh-rejoin discard semantics
	if err := fl.Sync(); err != nil {
		t.Fatal(err)
	}
	if fl.Front() != ml.Front() || fl.Front() != 200 {
		t.Fatalf("front mismatch: file=%d mem=%d", fl.Front(), ml.Front())
	}
	if fl.Duplicates() != ml.Duplicates() || fl.Duplicates() != 2 {
		t.Fatalf("dups mismatch: file=%d mem=%d", fl.Duplicates(), ml.Duplicates())
	}
	fr, mr := collect(t, fl), collect(t, ml)
	if len(fr) != len(mr) || len(fr) != 101 {
		t.Fatalf("replay length: file=%d mem=%d", len(fr), len(mr))
	}
	for i := range fr {
		if fr[i].Global != mr[i].Global || !bytes.Equal(fr[i].Payload, mr[i].Payload) {
			t.Fatalf("replay diverges at %d: file=%d mem=%d", i, fr[i].Global, mr[i].Global)
		}
	}
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: the recovered front is the durable resume position.
	fl2, err := OpenFileLog(dir, FileLogOptions{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer fl2.Close()
	if fl2.RecoveredFront() != 200 {
		t.Fatalf("recovered front = %d, want 200", fl2.RecoveredFront())
	}
	if got := len(collect(t, fl2)); got != 101 {
		t.Fatalf("reopened replay length = %d, want 101", got)
	}
}

// TestFileLogFaultInjection is the crash/corruption table: every fault
// must recover to a consistent prefix 1..k (never a hole, never a
// mangled record), with k bounded as each case expects.
func TestFileLogFaultInjection(t *testing.T) {
	const n = 200
	// Small segments so corruption in an early segment exercises the
	// drop-later-segments rule.
	opt := FileLogOptions{SegmentBytes: 2048}
	cases := []struct {
		name string
		// damage mutates the on-disk state after a clean close.
		damage func(t *testing.T, dir string)
		// wantMin/wantMax bound the recovered prefix length.
		wantMin, wantMax int
	}{
		{
			name:    "clean",
			damage:  func(t *testing.T, dir string) {},
			wantMin: n, wantMax: n,
		},
		{
			name: "corrupt-crc-tail",
			damage: func(t *testing.T, dir string) {
				// Flip a payload byte of the final record: its CRC
				// fails, only it is dropped.
				flipByteAt(t, lastSegment(t, dir), 2)
			},
			wantMin: n - 1, wantMax: n - 1,
		},
		{
			name: "mid-record-truncation",
			damage: func(t *testing.T, dir string) {
				truncateBy(t, lastSegment(t, dir), 7)
			},
			wantMin: n - 1, wantMax: n - 1,
		},
		{
			name: "corrupt-early-segment",
			damage: func(t *testing.T, dir string) {
				// Damage the first segment's tail: recovery truncates
				// there and must discard every later segment.
				flipByteAt(t, firstSegment(t, dir), 2)
			},
			wantMin: 1, wantMax: n / 2,
		},
		{
			name: "last-segment-header-torn",
			damage: func(t *testing.T, dir string) {
				if err := os.Truncate(lastSegment(t, dir), 3); err != nil {
					t.Fatal(err)
				}
			},
			wantMin: 1, wantMax: n - 1,
		},
		{
			name: "last-segment-removed",
			damage: func(t *testing.T, dir string) {
				if err := os.Remove(lastSegment(t, dir)); err != nil {
					t.Fatal(err)
				}
			},
			wantMin: 1, wantMax: n - 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := OpenFileLog(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			fill(t, l, n)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, dir)
			r, err := OpenFileLog(dir, opt)
			if err != nil {
				t.Fatalf("reopen after %s: %v", tc.name, err)
			}
			defer r.Close()
			k := assertPrefix(t, collect(t, r))
			if k < tc.wantMin || k > tc.wantMax {
				t.Fatalf("recovered prefix %d, want in [%d,%d]", k, tc.wantMin, tc.wantMax)
			}
			if r.RecoveredFront() != seq.GlobalSeq(k) {
				t.Fatalf("recovered front %d != prefix %d", r.RecoveredFront(), k)
			}
			// The log must accept appends continuing the prefix.
			if err := r.Append(mkRecord(uint64(k + 1))); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			if err := r.Sync(); err != nil {
				t.Fatal(err)
			}
			if got := len(collect(t, r)); got != k+1 {
				t.Fatalf("post-recovery append not visible: %d records, want %d", got, k+1)
			}
		})
	}
}

// TestFileLogCrashWindow emulates a crash between flush intervals: the
// writer is abandoned without Sync/Close, so appends past the last
// sync live only in the process buffer and must be gone on reopen —
// while everything before the sync survives.
func TestFileLogCrashWindow(t *testing.T) {
	for _, unsynced := range []int{1, 10, 50} {
		t.Run(fmt.Sprintf("unsynced-%d", unsynced), func(t *testing.T) {
			dir := t.TempDir()
			l, err := OpenFileLog(dir, FileLogOptions{SegmentBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			fill(t, l, 100) // durable
			for g := 101; g <= 100+unsynced; g++ {
				if err := l.Append(mkRecord(uint64(g))); err != nil {
					t.Fatal(err)
				}
			}
			// Crash: no Sync, no Close. The *os.File is leaked on
			// purpose — the OS closes it; what matters is the bufio
			// buffer is never flushed.
			l = nil
			r, err := OpenFileLog(dir, FileLogOptions{SegmentBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			k := assertPrefix(t, collect(t, r))
			if k < 100 || k > 100+unsynced {
				t.Fatalf("recovered prefix %d, want in [100,%d]", k, 100+unsynced)
			}
		})
	}
}

// TestFileLogDuplicateAppendOnReopen re-appends an overlapping window
// after recovery (exactly what a resumed member's catch-up repair
// does) and checks the log dedups rather than double-writing.
func TestFileLogDuplicateAppendOnReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenFileLog(dir, FileLogOptions{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, l, 60)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFileLog(dir, FileLogOptions{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Redeliver 40..80: 40..60 are duplicates, 61..80 extend.
	for g := 40; g <= 80; g++ {
		if err := r.Append(mkRecord(uint64(g))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
	if r.Duplicates() != 21 {
		t.Fatalf("duplicates = %d, want 21", r.Duplicates())
	}
	if k := assertPrefix(t, collect(t, r)); k != 80 {
		t.Fatalf("prefix %d, want 80", k)
	}
}

// TestFileLogSegmentRolling forces many tiny segments and checks the
// stream reads back whole across them.
func TestFileLogSegmentRolling(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenFileLog(dir, FileLogOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, l, 300)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 10 {
		t.Fatalf("expected many segments at 256B roll, got %d", len(segs))
	}
	r, err := OpenFileLog(dir, FileLogOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if k := assertPrefix(t, collect(t, r)); k != 300 {
		t.Fatalf("prefix %d, want 300", k)
	}
}

// TestDLQRoundTrip drives the list → replay → purge lifecycle the
// ringnet-dlq CLI exposes.
func TestDLQRoundTrip(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenDLQ(dir)
	if err != nil {
		t.Fatal(err)
	}
	ents := []DLQEntry{
		{Global: 41, Source: 2, Local: 7, Reason: "give-up", WallNS: 1111},
		{Global: 42, Source: 2, Local: 8, Reason: "give-up", WallNS: 2222},
		{Global: 55, Source: 3, Local: 1, Reason: "front-gap", WallNS: 3333},
	}
	for _, e := range ents {
		if err := q.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: entries survived.
	q, err = OpenDLQ(dir)
	if err != nil {
		t.Fatal(err)
	}
	if q.Len() != 3 || q.Cursor() != 0 {
		t.Fatalf("len=%d cursor=%d, want 3/0", q.Len(), q.Cursor())
	}
	got, err := q.Entries()
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range got {
		if e != ents[i] {
			t.Fatalf("entry %d: got %+v want %+v", i, e, ents[i])
		}
	}
	// Replay emits all three and advances the cursor durably.
	var replayed []DLQEntry
	n, err := q.Replay(func(e DLQEntry) error { replayed = append(replayed, e); return nil })
	if err != nil || n != 3 || len(replayed) != 3 {
		t.Fatalf("replay: n=%d err=%v", n, err)
	}
	// Idempotent: nothing left past the cursor, even across reopen.
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	q, err = OpenDLQ(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := q.Replay(func(DLQEntry) error { return nil }); err != nil || n != 0 {
		t.Fatalf("second replay: n=%d err=%v", n, err)
	}
	// New condemnations land past the cursor.
	if err := q.Add(DLQEntry{Global: 90, Source: 1, Local: 2, Reason: "give-up"}); err != nil {
		t.Fatal(err)
	}
	if n, _ := q.Replay(func(DLQEntry) error { return nil }); n != 1 {
		t.Fatalf("replay after add: n=%d, want 1", n)
	}
	// Purge empties everything and the queue stays usable.
	if err := q.Purge(); err != nil {
		t.Fatal(err)
	}
	if q.Len() != 0 {
		t.Fatalf("len after purge = %d", q.Len())
	}
	if ents, _ := q.Entries(); len(ents) != 0 {
		t.Fatalf("entries after purge = %d", len(ents))
	}
	if err := q.Add(DLQEntry{Global: 100, Source: 1, Local: 9, Reason: "skip"}); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	q, err = OpenDLQ(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if q.Len() != 1 || q.Cursor() != 0 {
		t.Fatalf("post-purge reopen: len=%d cursor=%d, want 1/0", q.Len(), q.Cursor())
	}
}

// TestDLQTornTail corrupts the queue file tail and checks recovery
// keeps the prefix.
func TestDLQTornTail(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenDLQ(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := q.Add(DLQEntry{Global: seq.GlobalSeq(i), Source: 1, Local: seq.LocalSeq(i), Reason: "give-up"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	truncateBy(t, filepath.Join(dir, dlqFile), 3)
	q, err = OpenDLQ(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if q.Len() != 4 {
		t.Fatalf("len after torn tail = %d, want 4", q.Len())
	}
	ents, err := q.Entries()
	if err != nil || len(ents) != 4 {
		t.Fatalf("entries = %d err=%v", len(ents), err)
	}
	for i, e := range ents {
		if e.Global != seq.GlobalSeq(i+1) {
			t.Fatalf("entry %d global = %d", i, e.Global)
		}
	}
}

// BenchmarkFileLogAppend sweeps the flush window: sync every k appends
// emulates the wire group's 25 ms fsync window at a given delivery
// rate. The ns/op spread between k=1 and k=∞ is the durability cost
// PERFORMANCE.md reports.
func BenchmarkFileLogAppend(b *testing.B) {
	payload := make([]byte, 64)
	for _, every := range []int{1, 8, 64, 512, 0} { // 0 = sync once at end
		name := fmt.Sprintf("sync-every-%d", every)
		if every == 0 {
			name = "sync-at-close"
		}
		b.Run(name, func(b *testing.B) {
			dir := b.TempDir()
			l, err := OpenFileLog(dir, FileLogOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := Record{Global: seq.GlobalSeq(i + 1), Source: 1,
					Local: seq.LocalSeq(i + 1), Payload: payload}
				if err := l.Append(r); err != nil {
					b.Fatal(err)
				}
				if every > 0 && (i+1)%every == 0 {
					if err := l.Sync(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			if err := l.Sync(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
