package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
)

// recFile is one CRC-framed append-only record file: a delivery-log
// segment or the dead-letter queue. The framing lives here once; Record
// and DLQEntry own only their body layout. On disk, little-endian:
//
//	header:  magic (4B) | version u32
//	frame:   bodyLen u32 | crc32c(body) u32 | body
//
// Appends land in a buffer and are durable only after sync. A recFile
// has no lock of its own: FileLog and DLQ call it under theirs.
type recFile struct {
	f     *os.File
	w     *bufio.Writer
	dirty bool // bytes written (or a header created) since the last fsync
}

const (
	logVersion = 1
	segHdrLen  = 8
	recHdrLen  = 8
	// recBodyMax bounds a single record body so a corrupt length field
	// cannot drive recovery into a multi-GB allocation.
	recBodyMax = 1 << 26
)

var crcTab = crc32.MakeTable(crc32.Castagnoli)

// errBadBody is what a scanFrames visitor returns for a body its codec
// rejects: the frame counts as corrupt, exactly like a CRC mismatch.
var errBadBody = errors.New("store: malformed record body")

// openRecFile opens path for appending, creating it if needed (flag adds
// os.O_EXCL where the file must be new), and writes the header into an
// empty file. The caller has already cut a torn header back to nothing.
// It returns the file's size, header included.
func openRecFile(path string, flag int, magic uint32, bufSize int) (*recFile, int64, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND|flag, 0o644)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	rf := &recFile{f: f, w: bufio.NewWriterSize(f, bufSize)}
	size := st.Size()
	if size < segHdrLen {
		var hdr [segHdrLen]byte
		binary.LittleEndian.PutUint32(hdr[0:4], magic)
		binary.LittleEndian.PutUint32(hdr[4:8], logVersion)
		if _, err := f.Write(hdr[:]); err != nil {
			f.Close()
			return nil, 0, err
		}
		size, rf.dirty = segHdrLen, true
	}
	return rf, size, nil
}

// appendFrame appends one frame to buf; put fills its bodyLen-byte body
// in place.
func appendFrame(buf []byte, bodyLen int, put func(body []byte)) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, recHdrLen+bodyLen)...)
	body := buf[start+recHdrLen:]
	put(body)
	binary.LittleEndian.PutUint32(buf[start:], uint32(bodyLen))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(body, crcTab))
	return buf
}

// write buffers one encoded frame.
func (rf *recFile) write(frame []byte) error {
	_, err := rf.w.Write(frame)
	rf.dirty = true
	return err
}

// flush hands buffered frames to the OS so a reader of the file sees them.
func (rf *recFile) flush() error { return rf.w.Flush() }

// sync makes every prior write durable: flush, then fsync. Free when
// nothing was written since the last call.
func (rf *recFile) sync() error {
	if !rf.dirty {
		return nil
	}
	if err := rf.w.Flush(); err != nil {
		return err
	}
	if err := rf.f.Sync(); err != nil {
		return err
	}
	rf.dirty = false
	return nil
}

// close syncs and releases the file.
func (rf *recFile) close() error {
	err := rf.sync()
	if cerr := rf.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// scanFile runs scanFrames over the file at path.
func scanFile(path string, magic uint32, visit func(body []byte) error) (truncAt int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return -1, err
	}
	defer f.Close()
	return scanFrames(bufio.NewReaderSize(f, 1<<16), magic, visit)
}

// scanFrames walks a record file frame by frame, handing each sound
// body (freshly allocated; the visitor may keep it) to visit. It stops
// at the first torn or corrupt frame — short header, length beyond
// recBodyMax, short body, CRC mismatch, or a body visit rejects with
// errBadBody — and returns that frame's offset: everything before it is
// a consistent prefix, so that is where recovery truncates. truncAt is
// -1 when the file is sound to its end and 0 when the header itself is
// torn or foreign. Any other visit error aborts the scan and is returned.
func scanFrames(r io.Reader, magic uint32, visit func(body []byte) error) (truncAt int64, err error) {
	var hdr [segHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != magic ||
		binary.LittleEndian.Uint32(hdr[4:8]) != logVersion {
		return 0, nil
	}
	off := int64(segHdrLen)
	for {
		if _, err := io.ReadFull(r, hdr[:recHdrLen]); err != nil {
			if err == io.EOF {
				return -1, nil // clean end on a frame boundary
			}
			return off, nil
		}
		bodyLen := binary.LittleEndian.Uint32(hdr[0:4])
		if bodyLen > recBodyMax {
			return off, nil
		}
		body := make([]byte, bodyLen)
		if _, err := io.ReadFull(r, body); err != nil {
			return off, nil
		}
		if crc32.Checksum(body, crcTab) != binary.LittleEndian.Uint32(hdr[4:8]) {
			return off, nil
		}
		if err := visit(body); err == errBadBody {
			return off, nil
		} else if err != nil {
			return -1, err
		}
		off += recHdrLen + int64(bodyLen)
	}
}
