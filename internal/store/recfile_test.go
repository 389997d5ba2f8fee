package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestFrameBytesPinned pins the one framing helper's output for a Record
// and a DLQEntry to the bytes appendRecord / appendDLQEntry produced
// before the two files shared it (captured at PR 21): the on-disk format
// is a compatibility surface, a restarted member reads what its previous
// incarnation wrote.
func TestFrameBytesPinned(t *testing.T) {
	rec := appendRecord(nil, Record{Global: 0x0102030405060708, Source: 0x0a0b0c0d,
		Local: 0x1112131415161718, Payload: []byte("ringnet")})
	if got, want := hex.EncodeToString(rec),
		"1b000000ab4a491108070605040302010d0c0b0a181716151413121172696e676e6574"; got != want {
		t.Errorf("record frame\n got %s\nwant %s", got, want)
	}
	ent := appendDLQEntry(nil, DLQEntry{Global: 0x0102030405060708, Source: 0x0a0b0c0d,
		Local: 0x1112131415161718, Reason: "give-up", WallNS: 0x2122232425262728})
	if got, want := hex.EncodeToString(ent),
		"250000007f77b1fd08070605040302010d0c0b0a181716151413121128272625242322210700676976652d7570"; got != want {
		t.Errorf("dlq frame\n got %s\nwant %s", got, want)
	}
}

// scanBytes runs the shared scan routine over an in-memory record file
// with the segment or the DLQ body codec, returning the truncation
// offset, the bodies accepted and their total length.
func scanBytes(t *testing.T, data []byte, dlq bool) (truncAt int64, n, bodyBytes int) {
	t.Helper()
	magic := uint32(logMagic)
	if dlq {
		magic = dlqMagic
	}
	truncAt, err := scanFrames(bytes.NewReader(data), magic, func(body []byte) error {
		if len(body) > recBodyMax {
			t.Fatalf("body of %d bytes exceeds recBodyMax", len(body))
		}
		ok := false
		if dlq {
			ok = new(DLQEntry).parseBody(body)
		} else {
			ok = new(Record).parseBody(body)
		}
		if !ok {
			return errBadBody
		}
		n++
		bodyBytes += len(body)
		return nil
	})
	if err != nil {
		t.Fatalf("scan error: %v", err)
	}
	return truncAt, n, bodyBytes
}

// FuzzRecordScan feeds arbitrary bytes to the one framed reader behind
// both the delivery-log segments and dlq.rlog. Whatever the input, the
// scan must not panic, must not allocate beyond one recBodyMax body plus
// the input's own size, must report a truncation offset that is a frame
// boundary inside the file, and the file cut there must scan clean with
// the same records.
func FuzzRecordScan(f *testing.F) {
	dir := f.TempDir()
	l, err := OpenFileLog(dir, FileLogOptions{})
	if err != nil {
		f.Fatal(err)
	}
	for g := uint64(1); g <= 3; g++ {
		if err := l.Append(mkRecord(g)); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	q, err := OpenDLQ(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range []DLQEntry{
		{Global: 41, Source: 2, Local: 7, Reason: "give-up", WallNS: 1111},
		{Global: 55, Source: 3, Local: 1, Reason: "front-gap", WallNS: 3333},
	} {
		if err := q.Add(e); err != nil {
			f.Fatal(err)
		}
	}
	if err := q.Close(); err != nil {
		f.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		dlq       bool
		lastFrame int
	}{
		{segName(1), false, len(appendRecord(nil, mkRecord(3)))},
		{dlqFile, true, len(appendDLQEntry(nil, DLQEntry{Reason: "front-gap"}))},
	} {
		valid, err := os.ReadFile(filepath.Join(dir, c.name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(valid, c.dlq)
		for cut := 1; cut <= c.lastFrame; cut++ { // every tear of the last frame
			f.Add(valid[:len(valid)-cut], c.dlq)
		}
		lastAt := len(valid) - c.lastFrame
		flipped := append([]byte(nil), valid...)
		flipped[lastAt+4] ^= 0xFF // CRC byte
		f.Add(flipped, c.dlq)
		huge := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(huge[lastAt:], 1<<31) // length field
		f.Add(huge, c.dlq)
	}

	f.Fuzz(func(t *testing.T, data []byte, dlq bool) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		truncAt, n, bodyBytes := scanBytes(t, data, dlq)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > recBodyMax+2*uint64(len(data))+1<<16 {
			t.Fatalf("scan of %d bytes allocated %d", len(data), grew)
		}
		end := int64(segHdrLen + n*recHdrLen + bodyBytes) // where the accepted frames stop
		switch {
		case truncAt == -1:
			if end != int64(len(data)) {
				t.Fatalf("sound file of %d bytes, accepted frames end at %d", len(data), end)
			}
			return
		case truncAt == 0:
			if n != 0 {
				t.Fatalf("header rejected after %d records", n)
			}
			return // recovery rewrites the header into the emptied file
		case truncAt != end || truncAt > int64(len(data)):
			t.Fatalf("truncAt %d, accepted frames end at %d, file %d bytes", truncAt, end, len(data))
		}
		again, n2, _ := scanBytes(t, data[:truncAt], dlq)
		if again != -1 || n2 != n {
			t.Fatalf("truncated file rescans to truncAt %d with %d records, want -1 with %d", again, n2, n)
		}
	})
}
