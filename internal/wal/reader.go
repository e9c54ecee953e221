package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
)

// ErrCaughtUp is returned by Reader.Next when every durable record has
// been delivered; the caller should wait for new appends and retry.
var ErrCaughtUp = errors.New("wal: reader caught up")

// ErrTruncated is returned by OpenReader when the requested position has
// already been truncated away; the caller must bootstrap from a
// checkpoint instead of the log.
var ErrTruncated = errors.New("wal: position truncated")

// refillBudget bounds the bytes of record payloads one refill buffers, so
// a reader far behind a large log does not materialize the whole backlog.
const refillBudget = 1 << 20

// Reader streams records in position order, starting at a fixed position
// and tailing new appends. While open it pins its cursor position:
// TruncateBefore never deletes a segment holding records at or beyond the
// lowest open reader cursor, so a shipping reader can lag a checkpoint
// without the ground vanishing underneath it. Close the reader to unpin.
//
// A Reader delivers only durable records (synced in sync mode, written in
// NoSync mode): a record that could still be discarded as a torn tail
// must never reach a follower.
//
// A Reader is not safe for concurrent use by multiple goroutines.
type Reader struct {
	l      *Log
	next   uint64 // next position to deliver; mirrored into l.pins under l.mu
	queue  [][]byte
	qpos   []uint64
	closed bool
}

// OpenReader opens a reader positioned at from (0 and 1 both mean the
// start). It fails with ErrTruncated when records at or after from
// existed but the segments holding them are gone.
func (l *Log) OpenReader(from uint64) (*Reader, error) {
	if from == 0 {
		from = 1
	}
	// Read the head before listing the segments: every record below it is
	// in a segment the listing sees, while a listing taken first could
	// miss the segment an append creates right after it, and report a
	// record that append wrote as truncated.
	l.mu.Lock()
	next := l.next
	l.mu.Unlock()
	segs, err := listSegments(l.fs, l.dir)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if next > from {
		if len(segs) == 0 || segs[0].firstPos > from {
			return nil, fmt.Errorf("%w: reader from %d, first retained segment at %d",
				ErrTruncated, from, func() uint64 {
					if len(segs) == 0 {
						return next
					}
					return segs[0].firstPos
				}())
		}
	}
	r := &Reader{l: l, next: from}
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
	if len(r.queue) == 0 {
		if err := r.refill(); err != nil {
			return 0, nil, err
		}
	}
	pos, payload := r.qpos[0], r.queue[0]
	r.queue[0] = nil
	r.queue = r.queue[1:]
	r.qpos = r.qpos[1:]
	return pos, payload, nil
}

// refill scans forward from the cursor, copying durable records into the
// queue up to the refill budget, then advances the pin to the cursor.
func (r *Reader) refill() error {
	l := r.l
	l.mu.Lock()
	if l.syncErr != nil {
		err := l.syncErr
		l.mu.Unlock()
		return err
	}
	limit := l.synced
	if l.opts.NoSync {
		limit = l.appended
	}
	l.mu.Unlock()
	if r.next > limit {
		return ErrCaughtUp
	}
	segs, err := listSegments(l.fs, l.dir)
	if err != nil {
		return err
	}
	if len(segs) == 0 || segs[0].firstPos > r.next {
		// The cursor's segment was truncated despite the pin — only
		// possible if the log was Reset out from under us.
		return fmt.Errorf("%w: reader at %d", ErrTruncated, r.next)
	}
	budget := refillBudget
	for i, seg := range segs {
		segEnd := limit + 1 // exclusive upper bound on positions we read
		if i+1 < len(segs) && segs[i+1].firstPos < segEnd {
			segEnd = segs[i+1].firstPos
		}
		if segEnd <= r.next {
			continue
		}
		if seg.firstPos > limit || budget <= 0 {
			break
		}
		if err := r.scanFrom(seg, limit, &budget); err != nil {
			return err
		}
	}
	if len(r.queue) == 0 {
		return ErrCaughtUp
	}
	l.mu.Lock()
	l.pins[r] = r.next
	l.mu.Unlock()
	return nil
}

// scanFrom walks one segment, appending records with position in
// [r.next, limit] to the queue. Appends race this read, but a record at
// or below limit is fully written before the durability watermark moves
// (both happen under l.mu), so inside the scanned range a torn record or
// CRC mismatch is genuine corruption, not an in-flight write.
func (r *Reader) scanFrom(seg segment, limit uint64, budget *int) error {
	data, err := r.l.fs.ReadFile(filepath.Join(r.l.dir, seg.name))
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	pos := seg.firstPos
	var off int64
	for int64(len(data))-off >= recHeader && pos <= limit && *budget > 0 {
		n := binary.LittleEndian.Uint32(data[off:])
		wantCRC := binary.LittleEndian.Uint32(data[off+4:])
		if n > MaxRecord || int64(len(data))-off-recHeader < int64(n) {
			return fmt.Errorf("wal: %s: truncated durable record at position %d", seg.name, pos)
		}
		payload := data[off+recHeader : off+recHeader+int64(n)]
		if crc32.Checksum(payload, castagnoli) != wantCRC {
			return fmt.Errorf("wal: %s: CRC mismatch at position %d", seg.name, pos)
		}
		if pos >= r.next {
			cp := make([]byte, len(payload))
			copy(cp, payload)
			r.queue = append(r.queue, cp)
			r.qpos = append(r.qpos, pos)
			r.next = pos + 1
			*budget -= recHeader + len(payload)
		}
		off += recHeader + int64(n)
		pos++
	}
	return nil
}

// Pos reports the position of the next record the reader will deliver.
func (r *Reader) Pos() uint64 { return r.next }

// Close unpins the reader's segments. Idempotent.
func (r *Reader) Close() {
	if r.closed {
		return
	}
	r.closed = true
	r.l.mu.Lock()
	delete(r.l.pins, r)
	r.l.mu.Unlock()
	r.queue, r.qpos = nil, nil
}
