// Package wal implements a segmented, CRC-checked write-ahead log for
// kcoverd's ingest path. Each session logs the batches it has accepted
// BEFORE acknowledging them; after a crash, replaying the log tail beyond
// the last snapshot through the normal batch path reconstructs the exact
// in-memory state (the batch path is bit-identical to per-edge
// processing, so batch boundaries are irrelevant).
//
// Layout: a log is a directory of segment files named
// wal-<firstPos:016x>.seg, where positions are 1-based and monotone
// across the whole log. Each segment is a sequence of records:
//
//	[4-byte LE payload length][4-byte LE CRC-32C of payload][payload]
//
// Records are opaque to the WAL (kcoverd stores framed batch payloads).
// Appends go to the newest segment until it exceeds the configured size,
// then a new segment starts. Durability uses leader-based group commit: all
// appends that arrived while the current fsync was in flight ride the
// next one, so sustained multi-client load pays ~one fsync per queue
// drain rather than one per batch.
//
// Every read of the log goes through one cursor: Open and Reset walk the
// last segment to its intact end, Replay walks from a position to the
// last append, and a Reader tails the durable prefix. The cursor holds one
// segment open read-only, reads each record once from its byte offset,
// checks it (length bound, CRC-32C), and moves on only to the segment
// that starts at the next position, so a missing segment is an error,
// never a skip.
//
// Recovery tolerates a torn tail: a truncated or corrupt record at the
// END of the LAST segment is discarded (the write never completed, so it
// was never acknowledged). Corruption anywhere else is an error — those
// records were acknowledged, so losing them must be loud.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"streamcover/internal/fault"
)

const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	recHeader  = 8
	defaultSeg = 64 << 20

	// MaxRecord bounds a single record (16 MiB: comfortably above the wire
	// protocol's frame limit) so a corrupt length cannot cause an absurd
	// allocation during recovery.
	MaxRecord = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options tunes a log.
type Options struct {
	// SegmentBytes rotates to a new segment once the current one exceeds
	// this size (default 64 MiB).
	SegmentBytes int64
	// NoSync disables fsync on Append (for tests and benchmarks only;
	// rename-durability of TruncateBefore is unaffected).
	NoSync bool
	// FS is the filesystem the log writes through (default fault.OS()).
	// Tests inject faults by passing a *fault.Injector.
	FS fault.FS
}

// Log is an append-only record log. Append is safe for concurrent use;
// Replay and TruncateBefore must not race with Append (kcoverd replays
// before serving and truncates under its checkpoint lock).
type Log struct {
	dir  string
	opts Options
	fs   fault.FS

	mu      sync.Mutex // guards file, size, next and rotation
	file    fault.File
	size    int64 // bytes in the active segment
	segPos  uint64
	next    uint64 // position the next Append receives
	syncErr error  // sticky until Reset: a failed write or sync poisons the log

	// Group commit: appenders enqueue under mu, one leader fsyncs.
	syncMu     sync.Mutex // serializes fsyncs
	flushCond  *sync.Cond // signaled when synced advances
	synced     uint64     // highest position known durable
	appended   uint64     // highest position written to the OS
	syncActive bool

	// pins maps each open Reader to its cursor position; TruncateBefore
	// never deletes a segment holding records at or beyond the minimum.
	pins map[*Reader]uint64
}

// Open opens (or creates) the log in dir and prepares it for appending,
// as Reset does: it truncates a torn tail in the last segment and
// positions the next append after the last intact record.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSeg
	}
	if opts.FS == nil {
		opts.FS = fault.OS()
	}
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts, fs: opts.FS, next: 1}
	l.flushCond = sync.NewCond(&l.mu)
	if err := l.Reset(); err != nil {
		return nil, err
	}
	return l, nil
}

type segment struct {
	name     string
	firstPos uint64
}

func listSegments(fsys fault.FS, dir string) ([]segment, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		hexPos := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		pos, err := strconv.ParseUint(hexPos, 16, 64)
		if err != nil || pos == 0 {
			return nil, fmt.Errorf("wal: alien segment file %q", name)
		}
		segs = append(segs, segment{name: name, firstPos: pos})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstPos < segs[j].firstPos })
	for i := 1; i < len(segs); i++ {
		if segs[i].firstPos <= segs[i-1].firstPos {
			return nil, fmt.Errorf("wal: duplicate segment position %d", segs[i].firstPos)
		}
	}
	return segs, nil
}

func segName(firstPos uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, firstPos, segSuffix)
}

// Append writes one record and returns its position (1-based, monotone).
// When the log is in sync mode (the default), Append returns only after
// the record is durable — possibly having ridden another appender's
// fsync.
func (l *Log) Append(payload []byte) (uint64, error) {
	pos, wait, err := l.AppendStart(payload)
	if err != nil {
		return pos, err
	}
	return pos, wait()
}

// AppendStart writes one record and assigns its position, returning
// before durability: the wait function blocks until the record is durable
// (riding the group commit; immediate under NoSync). It exists for
// callers that must make the position assignment atomic with an external
// ordering commitment — e.g. a replicated session, whose replay order is
// log order, applying the record to its own state — while still
// overlapping the fsync with that work.
func (l *Log) AppendStart(payload []byte) (uint64, func() error, error) {
	if len(payload) > MaxRecord {
		return 0, nil, fmt.Errorf("wal: record of %d bytes exceeds limit %d", len(payload), MaxRecord)
	}
	var hdr [recHeader]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))

	l.mu.Lock()
	if l.syncErr != nil {
		err := l.syncErr
		l.mu.Unlock()
		return 0, nil, err
	}
	if err := l.ensureSegmentLocked(); err != nil {
		l.mu.Unlock()
		return 0, nil, err
	}
	pos := l.next
	file := l.file
	if _, err := file.Write(hdr[:]); err != nil {
		l.syncErr = fmt.Errorf("wal: %w", err)
		l.mu.Unlock()
		return 0, nil, l.syncErr
	}
	if _, err := file.Write(payload); err != nil {
		l.syncErr = fmt.Errorf("wal: %w", err)
		l.mu.Unlock()
		return 0, nil, l.syncErr
	}
	l.next++
	l.size += recHeader + int64(len(payload))
	l.appended = pos
	l.mu.Unlock()

	if l.opts.NoSync {
		return pos, func() error { return nil }, nil
	}
	return pos, func() error { return l.waitDurable(pos) }, nil
}

// waitDurable blocks until pos is durable, electing this goroutine as the
// fsync leader when none is active (group commit). The leader captures the
// active file under mu while holding syncActive, and rotation/Close wait
// for syncActive to clear before closing any file, so the unlocked fsync
// can never race a Close of its file.
func (l *Log) waitDurable(pos uint64) error {
	l.mu.Lock()
	for {
		if l.syncErr != nil {
			err := l.syncErr
			l.mu.Unlock()
			return err
		}
		if l.synced >= pos {
			l.mu.Unlock()
			return nil
		}
		if l.file == nil {
			// Close ran; it fsyncs before closing, so nothing is left to
			// make durable.
			l.mu.Unlock()
			return nil
		}
		if !l.syncActive {
			break
		}
		l.flushCond.Wait()
	}
	l.syncActive = true
	target := l.appended // everything written so far rides this fsync
	// pos is in the active file: rotation fsyncs the old segment and
	// advances synced past its records before closing it, so synced < pos
	// places pos's record in l.file.
	file := l.file
	l.mu.Unlock()

	err := file.Sync()

	l.mu.Lock()
	l.syncActive = false
	if err != nil {
		l.syncErr = fmt.Errorf("wal: fsync: %w", err)
		err = l.syncErr
	} else if target > l.synced {
		l.synced = target
	}
	l.flushCond.Broadcast()
	l.mu.Unlock()
	return err
}

// ensureSegmentLocked opens the active segment, rotating first if full.
// Rotation waits out any in-flight group commit: the leader fsyncs its
// captured file outside mu, and closing that file underneath it would
// turn an already-durable flush into a spurious sticky sync error.
func (l *Log) ensureSegmentLocked() error {
	if l.file == nil {
		// A closed log (an evicted session's parked WAL) resumes its active
		// segment when it is still on disk. Creating segName(l.next) instead
		// would fail whenever that segment holds no records: it is then the
		// very file of that name.
		f, err := l.fs.OpenFile(filepath.Join(l.dir, segName(l.segPos)), os.O_WRONLY|os.O_APPEND, 0o644)
		if err == nil {
			l.file = f
		} else if !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("wal: %w", err)
		}
	}
	for l.file != nil {
		if l.size < l.opts.SegmentBytes {
			return nil
		}
		if l.syncActive {
			l.flushCond.Wait()
			if l.syncErr != nil {
				return l.syncErr
			}
			continue
		}
		// Rotation: the old segment must be fully durable before records
		// start landing in a new one, or recovery could see a gap.
		if !l.opts.NoSync {
			if err := l.file.Sync(); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			l.synced = l.next - 1
			l.flushCond.Broadcast() // appenders this sync just covered
		}
		if err := l.file.Close(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.file = nil
	}
	path := filepath.Join(l.dir, segName(l.next))
	f, err := l.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(l.fs, l.dir); err != nil {
		// Remove the just-created segment so a retry's O_EXCL create does
		// not trip over it; it holds no records yet.
		f.Close()
		l.fs.Remove(path)
		return err
	}
	l.file = f
	l.segPos = l.next
	l.size = 0
	return nil
}

// TruncateBefore deletes whole segments every record of which has
// position < pos. Records at or above pos are always retained; some
// records below pos usually survive in the segment that straddles the
// boundary. Segments still needed by an open Reader (a shipping
// replication stream, say) are also retained: the effective truncation
// point is clamped to the lowest reader cursor, so a checkpoint racing a
// lagging shipper never deletes records the shipper has yet to deliver.
func (l *Log) TruncateBefore(pos uint64) error {
	segs, err := listSegments(l.fs, l.dir)
	if err != nil {
		return err
	}
	l.mu.Lock()
	activePos, next, hasFile := l.segPos, l.next, l.file != nil
	for _, cursor := range l.pins {
		if cursor < pos {
			pos = cursor
		}
	}
	l.mu.Unlock()
	removed := 0
	for i, seg := range segs {
		if hasFile && seg.firstPos >= activePos {
			break // never delete the active segment
		}
		segEnd := next
		if i+1 < len(segs) {
			segEnd = segs[i+1].firstPos
		}
		if segEnd > pos {
			break
		}
		if err := l.fs.Remove(filepath.Join(l.dir, seg.name)); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		removed++
	}
	if removed == 0 {
		return nil // no directory entry changed
	}
	return syncDir(l.fs, l.dir)
}

// Pins reports the number of open Readers currently pinning segments (a
// shipping replication stream holds one for its whole life). Callers that
// want to take a log fully cold — session eviction, say — check Pins()==0
// first; TruncateBefore already clamps to pinned cursors, so this is a
// policy signal, not a safety requirement.
func (l *Log) Pins() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pins)
}

// ResetTo discards every record and re-bases the position space so the
// next Append lands at next — a follower being re-bootstrapped from a
// leader checkpoint covering position next-1 calls this to make its
// mirror consistent again. It refuses while readers are open (their
// cursors would dangle) and must not race Append; the caller holds the
// session frozen.
func (l *Log) ResetTo(next uint64) error {
	if next == 0 {
		return fmt.Errorf("wal: ResetTo(0): positions are 1-based")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.pins) > 0 {
		return fmt.Errorf("wal: ResetTo with %d open readers", len(l.pins))
	}
	l.dropFileLocked()
	segs, err := listSegments(l.fs, l.dir)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if err := l.fs.Remove(filepath.Join(l.dir, seg.name)); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	if err := syncDir(l.fs, l.dir); err != nil {
		return err
	}
	l.restartLocked(next, next, 0)
	return nil
}

// LastPos reports the position of the most recent append (0 when empty).
func (l *Log) LastPos() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// DurablePos reports the highest position a Reader can currently deliver.
func (l *Log) DurablePos() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durableLocked()
}

// durableLocked is the durability watermark: synced in sync mode,
// appended with NoSync.
func (l *Log) durableLocked() uint64 {
	if l.opts.NoSync {
		return l.appended
	}
	return l.synced
}

// Close syncs and closes the active segment, waiting out any in-flight
// group commit first. A later Append reopens the log, resuming the active
// segment where it is still on disk.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.syncActive {
		l.flushCond.Wait()
	}
	if l.file == nil {
		return nil
	}
	var err error
	if !l.opts.NoSync {
		err = l.file.Sync()
	}
	if cerr := l.file.Close(); err == nil {
		err = cerr
	}
	l.file = nil
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// Reset clears a sticky write/sync error and re-opens the log for
// appending. It rescans the last segment on disk, truncates any torn tail
// (a record whose write or fsync failed was never acknowledged, so
// discarding it is safe), and resumes appending after the last intact
// record. When every segment is gone it keeps the old position space, so
// positions acknowledged before the fault are never reissued.
//
// Reset must not race Append; kcoverd calls it under the same checkpoint
// lock that freezes the ingest path.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dropFileLocked()
	segs, err := listSegments(l.fs, l.dir)
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		// No segments survived: the next append creates a fresh segment at
		// the preserved position.
		l.restartLocked(l.next, l.next, 0)
		return nil
	}
	c := cursor{fs: l.fs, dir: l.dir}
	if err := c.open(segs[len(segs)-1]); err != nil {
		return err
	}
	defer c.close()
	path := filepath.Join(l.dir, c.seg.name)
	for {
		_, err := c.record()
		if err == io.EOF {
			break
		}
		if errors.Is(err, errTorn) {
			if err := l.fs.Truncate(path, c.off); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			break
		}
		if err != nil {
			return err
		}
	}
	f, err := l.fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.file = f
	l.restartLocked(c.seg.firstPos, c.pos, c.off)
	return nil
}

// dropFileLocked waits out any in-flight group commit and closes the
// active segment, best effort: the handle may be the faulted one.
func (l *Log) dropFileLocked() {
	for l.syncActive {
		l.flushCond.Wait()
	}
	if l.file != nil {
		l.file.Close()
		l.file = nil
	}
}

// restartLocked points the append state at the end of the active segment,
// which starts at position segPos and holds size bytes: the next append
// lands at next, every record before it counts as durable, and no error
// is sticky.
func (l *Log) restartLocked(segPos, next uint64, size int64) {
	l.segPos, l.next, l.size = segPos, next, size
	l.syncErr = nil
	l.synced, l.appended = next-1, next-1
	l.flushCond.Broadcast()
}

func syncDir(fsys fault.FS, dir string) error {
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("wal: fsync %s: %w", dir, err)
	}
	return nil
}
