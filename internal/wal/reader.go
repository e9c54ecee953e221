package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"streamcover/internal/fault"
)

// ErrCaughtUp is returned by Reader.Next when every durable record has
// been delivered; the caller should wait for new appends and retry.
var ErrCaughtUp = errors.New("wal: reader caught up")

// ErrTruncated is returned when the requested position has already been
// truncated away: by OpenReader, whose caller must bootstrap from a
// checkpoint instead of the log, and by a Replay or Reader whose segment
// is gone.
var ErrTruncated = errors.New("wal: position truncated")

// errTorn marks bytes at a cursor that are not a whole record: cut short,
// implausibly long, or failing their CRC. At the end of the last segment
// that is a write that never completed; below a position the log has
// acknowledged it is corruption.
var errTorn = errors.New("torn record")

// cursor is the log's one record reader. It holds one segment open
// read-only at the byte offset of position pos, reads each record once,
// and leaves a segment only at its clean end, for the segment that starts
// at the next position.
type cursor struct {
	fs  fault.FS
	dir string
	f   fault.File // the segment holding pos; nil until the first read
	seg segment
	pos uint64
	off int64
	hdr [recHeader]byte
	buf []byte // the last payload read, reused
}

func (c *cursor) open(seg segment) error {
	f, err := c.fs.OpenFile(filepath.Join(c.dir, seg.name), os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	c.f, c.seg, c.pos, c.off = f, seg, seg.firstPos, 0
	return nil
}

func (c *cursor) close() {
	if c.f != nil {
		c.f.Close()
		c.f = nil
	}
}

// record reads the record at the cursor and advances past it. It returns
// io.EOF at the segment's clean end and an error wrapping errTorn when the
// bytes there are not a whole record. The payload is valid until the next
// call.
func (c *cursor) record() ([]byte, error) {
	n, err := c.f.ReadAt(c.hdr[:], c.off)
	if n == 0 && err == io.EOF {
		return nil, io.EOF
	}
	if n < recHeader {
		return nil, c.short(err)
	}
	size := binary.LittleEndian.Uint32(c.hdr[:4])
	if size > MaxRecord {
		return nil, fmt.Errorf("wal: %s: %w: length %d at offset %d", c.seg.name, errTorn, size, c.off)
	}
	if cap(c.buf) < int(size) {
		c.buf = make([]byte, size)
	}
	c.buf = c.buf[:size]
	if n, err := c.f.ReadAt(c.buf, c.off+recHeader); n < len(c.buf) {
		return nil, c.short(err)
	}
	if crc32.Checksum(c.buf, castagnoli) != binary.LittleEndian.Uint32(c.hdr[4:]) {
		return nil, fmt.Errorf("wal: %s: %w: CRC mismatch at offset %d", c.seg.name, errTorn, c.off)
	}
	c.off += recHeader + int64(size)
	c.pos++
	return c.buf, nil
}

// short reports a read that ended inside a record: torn at end of file,
// else the read's own error.
func (c *cursor) short(err error) error {
	if err == io.EOF {
		return fmt.Errorf("wal: %s: %w: cut short at offset %d", c.seg.name, errTorn, c.off)
	}
	return fmt.Errorf("wal: %w", err)
}

// next returns the record at position c.pos and advances past it. The
// caller knows the record exists (c.pos is at most the log's last or
// durable position), so a missing segment, a gap between segments or a
// torn record is an error. The payload is valid until the next call.
func (c *cursor) next() ([]byte, error) {
	if c.f == nil {
		if err := c.seek(); err != nil {
			return nil, err
		}
	}
	for {
		rec, err := c.record()
		if err != io.EOF {
			return rec, err
		}
		if err := c.nextSegment(); err != nil {
			return nil, err
		}
	}
}

// seek opens the segment holding c.pos and reads up to it.
func (c *cursor) seek() error {
	want := c.pos
	segs, err := listSegments(c.fs, c.dir)
	if err != nil {
		return err
	}
	seg, err := segmentHolding(segs, want)
	if err != nil {
		return err
	}
	if err := c.open(seg); err != nil {
		return err
	}
	for c.pos < want {
		if _, err := c.next(); err != nil {
			return err
		}
	}
	return nil
}

// nextSegment moves the cursor from the segment it has read to its end
// into the segment that follows, which must start at the next position.
func (c *cursor) nextSegment() error {
	segs, err := listSegments(c.fs, c.dir)
	if err != nil {
		return err
	}
	i := sort.Search(len(segs), func(i int) bool { return segs[i].firstPos > c.seg.firstPos })
	if i == len(segs) || segs[i].firstPos != c.pos {
		return fmt.Errorf("wal: gap after %s: no segment starts at position %d", c.seg.name, c.pos)
	}
	c.close()
	return c.open(segs[i])
}

// segmentHolding returns the segment holding position pos: the last one
// that starts at or below it.
func segmentHolding(segs []segment, pos uint64) (segment, error) {
	i := sort.Search(len(segs), func(i int) bool { return segs[i].firstPos > pos })
	if i == 0 {
		return segment{}, fmt.Errorf("%w: no retained segment holds position %d", ErrTruncated, pos)
	}
	return segs[i-1], nil
}

// Replay streams every record from position from through LastPos, in
// order, to fn; the payload is valid only during the call. Positions
// below the first retained segment are expected to be gone (truncated
// after a checkpoint); a segment holding positions >= from that has
// vanished out from under the log is a loud error — those records were
// acknowledged, and replaying around the hole would silently drop them.
func (l *Log) Replay(from uint64, fn func(pos uint64, payload []byte) error) error {
	c := cursor{fs: l.fs, dir: l.dir, pos: max(from, 1)}
	defer c.close()
	for last := l.LastPos(); c.pos <= last; {
		pos := c.pos
		rec, err := c.next()
		if err != nil {
			return err
		}
		if err := fn(pos, rec); err != nil {
			return err
		}
	}
	return nil
}

// Reader streams records in position order, starting at a fixed position
// and tailing new appends. It reads through the same cursor as Replay: one
// segment held open, each record read once from its byte offset, and a
// move only to the segment that starts where the last one ended, so a
// missing segment stops the reader with an error instead of a skip.
//
// While open it pins its cursor position: TruncateBefore never deletes a
// segment holding records at or beyond the lowest open reader cursor, so
// a shipping reader can lag a checkpoint without the ground vanishing
// underneath it. Close the reader to unpin.
//
// A Reader delivers only durable records (DurablePos): a record that could
// still be discarded as a torn tail must never reach a follower.
//
// A Reader is not safe for concurrent use by multiple goroutines.
type Reader struct {
	l      *Log
	c      cursor // c.pos is the next position to deliver
	closed bool
}

// OpenReader opens a reader positioned at from (0 and 1 both mean the
// start). It fails with ErrTruncated when records at or after from
// existed but the segments holding them are gone.
func (l *Log) OpenReader(from uint64) (*Reader, error) {
	from = max(from, 1)
	// Read the head before listing the segments: every record below it is
	// in a segment the listing sees, while a listing taken first could
	// miss the segment an append creates right after it, and report a
	// record that append wrote as truncated.
	head := l.LastPos()
	segs, err := listSegments(l.fs, l.dir)
	if err != nil {
		return nil, err
	}
	if head >= from {
		if _, err := segmentHolding(segs, from); err != nil {
			return nil, err
		}
	}
	r := &Reader{l: l, c: cursor{fs: l.fs, dir: l.dir, pos: from}}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.pins == nil {
		l.pins = make(map[*Reader]uint64)
	}
	l.pins[r] = from
	return r, nil
}

// Next returns the next record's position and payload. The payload is
// owned by the caller. It returns ErrCaughtUp when no further durable
// record exists yet.
func (r *Reader) Next() (uint64, []byte, error) {
	if r.closed {
		return 0, nil, errors.New("wal: reader closed")
	}
	l, pos := r.l, r.c.pos
	l.mu.Lock()
	l.pins[r] = pos
	durable, err := l.durableLocked(), l.syncErr
	l.mu.Unlock()
	if err != nil {
		return 0, nil, err
	}
	if pos > durable {
		return 0, nil, ErrCaughtUp
	}
	rec, err := r.c.next()
	if err != nil {
		return 0, nil, err
	}
	return pos, bytes.Clone(rec), nil
}

// Close unpins the reader's segments. Idempotent.
func (r *Reader) Close() {
	if r.closed {
		return
	}
	r.closed = true
	r.l.mu.Lock()
	delete(r.l.pins, r)
	r.l.mu.Unlock()
	r.c.close()
}
