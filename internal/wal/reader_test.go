package wal

import (
	"bytes"
	"errors"
	"io/fs"
	"testing"

	"streamcover/internal/fault"
)

// drainReader pulls records until ErrCaughtUp, returning them by position.
func drainReader(t *testing.T, r *Reader) map[uint64][]byte {
	t.Helper()
	out := map[uint64][]byte{}
	for {
		pos, payload, err := r.Next()
		if errors.Is(err, ErrCaughtUp) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out[pos] = payload
	}
}

func TestReaderTailsAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	r, err := l.OpenReader(1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, _, err := r.Next(); !errors.Is(err, ErrCaughtUp) {
		t.Fatalf("Next on empty log: %v, want ErrCaughtUp", err)
	}
	want := map[uint64][]byte{}
	for i := 1; i <= 40; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 1+i%13)
		pos, err := l.Append(payload)
		if err != nil {
			t.Fatal(err)
		}
		want[pos] = payload
		// Interleave tailing with appends: every few records, drain.
		if i%7 == 0 {
			for pos2, p := range drainReader(t, r) {
				if !bytes.Equal(p, want[pos2]) {
					t.Fatalf("record %d corrupted", pos2)
				}
				delete(want, pos2)
			}
		}
	}
	for pos2, p := range drainReader(t, r) {
		if !bytes.Equal(p, want[pos2]) {
			t.Fatalf("record %d corrupted", pos2)
		}
		delete(want, pos2)
	}
	if len(want) != 0 {
		t.Fatalf("%d records never delivered", len(want))
	}
	if r.Pos() != 41 {
		t.Fatalf("reader cursor %d, want 41", r.Pos())
	}
}

func TestReaderDeliversOnlyDurable(t *testing.T) {
	dir := t.TempDir()
	// Sync mode: records become visible to the reader only once fsynced.
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := l.OpenReader(1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := drainReader(t, r); len(got) != 5 {
		t.Fatalf("delivered %d records, want 5", len(got))
	}
}

// TestTruncateDuringShip is the regression for the truncate-vs-shipper
// race: a checkpoint must not delete segments an open reader has yet to
// deliver. Before segment pinning, TruncateBefore(pos) deleted every
// fully-checkpointed segment even while a reader's cursor was still
// inside one, and the next refill failed with ErrTruncated.
func TestTruncateDuringShip(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so the log rotates often: 40 records spread over
	// many segments.
	l, err := Open(dir, Options{NoSync: true, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 40; i++ {
		if _, err := l.Append(bytes.Repeat([]byte{byte(i)}, 24)); err != nil {
			t.Fatal(err)
		}
	}
	r, err := l.OpenReader(1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Deliver a handful, leaving the cursor mid-log.
	for i := 0; i < 5; i++ {
		if _, _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	// A checkpoint at the head truncates everything it can... which must
	// exclude segments at or beyond the reader cursor.
	if err := l.TruncateBefore(41); err != nil {
		t.Fatal(err)
	}
	got := drainReader(t, r)
	if len(got) != 35 {
		t.Fatalf("delivered %d records after truncate, want 35", len(got))
	}
	// Once the reader closes, the same truncation reclaims the segments.
	r.Close()
	if err := l.TruncateBefore(41); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(l.fs, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) > 1 {
		t.Fatalf("%d segments retained after unpinned truncate, want <=1", len(segs))
	}
}

func TestReaderRefillBudgetPreservesOrder(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true, SegmentBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Payloads large enough that the backlog exceeds one refill budget.
	big := bytes.Repeat([]byte{0xAB}, 200<<10)
	for i := 1; i <= 12; i++ {
		big[0] = byte(i)
		if _, err := l.Append(big); err != nil {
			t.Fatal(err)
		}
	}
	r, err := l.OpenReader(1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	next := uint64(1)
	for {
		pos, payload, err := r.Next()
		if errors.Is(err, ErrCaughtUp) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if pos != next {
			t.Fatalf("position %d out of order, want %d", pos, next)
		}
		if payload[0] != byte(pos) {
			t.Fatalf("record %d has wrong payload", pos)
		}
		next++
	}
	if next != 13 {
		t.Fatalf("delivered through %d, want 12", next-1)
	}
}

func TestOpenReaderTruncatedPosition(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 20; i++ {
		if _, err := l.Append(bytes.Repeat([]byte{byte(i)}, 24)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.TruncateBefore(15); err != nil {
		t.Fatal(err)
	}
	if _, err := l.OpenReader(1); !errors.Is(err, ErrTruncated) {
		t.Fatalf("OpenReader(1) after truncate: %v, want ErrTruncated", err)
	}
	r, err := l.OpenReader(15)
	if err != nil {
		t.Fatalf("OpenReader(15): %v", err)
	}
	defer r.Close()
	if got := drainReader(t, r); len(got) != 6 {
		t.Fatalf("delivered %d records, want 6", len(got))
	}
}

// appendAfterList is a filesystem whose ReadDir, once armed, appends a
// record to the log after taking the listing, as a leader's first append
// can land between a subscribing reader's listing and its look at the
// log's head.
type appendAfterList struct {
	fault.FS
	l      *Log
	armed  bool
	appErr error
}

func (f *appendAfterList) ReadDir(name string) ([]fs.DirEntry, error) {
	ents, err := f.FS.ReadDir(name)
	if f.armed {
		f.armed = false
		_, f.appErr = f.l.Append([]byte("first"))
	}
	return ents, err
}

// TestOpenReaderRacingFirstAppend opens a reader at 1 while the log's
// first append creates segment 1 right after the reader lists the
// segments. The reader must deliver record 1, not report it truncated.
func TestOpenReaderRacingFirstAppend(t *testing.T) {
	fsys := &appendAfterList{FS: fault.OS()}
	l, err := Open(t.TempDir(), Options{NoSync: true, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fsys.l, fsys.armed = l, true
	r, err := l.OpenReader(1)
	if fsys.appErr != nil {
		t.Fatal(fsys.appErr)
	}
	if fsys.armed {
		t.Fatal("OpenReader listed no segments")
	}
	if err != nil {
		t.Fatalf("OpenReader(1) racing the first append: %v", err)
	}
	defer r.Close()
	if pos, payload, err := r.Next(); err != nil || pos != 1 || string(payload) != "first" {
		t.Fatalf("Next = (%d, %q, %v), want record 1 %q", pos, payload, err, "first")
	}
}

// TestResetTo pins the re-base a follower bootstrap makes: ResetTo(next)
// leaves the log empty with its next append at position next, whether
// the log was empty or held records (which it discards), and the
// position space survives a reopen.
func TestResetTo(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	// An empty log re-bases.
	if err := l.ResetTo(101); err != nil {
		t.Fatal(err)
	}
	if got := l.LastPos(); got != 100 {
		t.Fatalf("LastPos after ResetTo(101) on an empty log %d, want 100", got)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.LastPos(); got != 103 {
		t.Fatalf("LastPos after three appends %d, want 103", got)
	}

	// A log holding records discards them and re-bases.
	if err := l.ResetTo(201); err != nil {
		t.Fatal(err)
	}
	if got := l.LastPos(); got != 200 {
		t.Fatalf("LastPos after ResetTo(201) %d, want 200", got)
	}
	pos, err := l.Append([]byte("z"))
	if err != nil {
		t.Fatal(err)
	}
	if pos != 201 {
		t.Fatalf("first append after the re-base at %d, want 201", pos)
	}
	var got []uint64
	if err := l.Replay(201, func(pos uint64, rec []byte) error {
		got = append(got, pos)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 201 {
		t.Fatalf("replayed positions %v, want [201]", got)
	}
	segs, err := listSegments(l.fs, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].name != segName(201) {
		t.Fatalf("segments %v after the re-base, want single %s: the discarded records survived", segs, segName(201))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The position space survives a reopen via the segment name.
	l2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastPos() != 201 {
		t.Fatalf("LastPos after reopen %d, want 201", l2.LastPos())
	}
	if segs, err = listSegments(l2.fs, dir); err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].name != segName(201) {
		t.Fatalf("segments %v after reopen, want single %s", segs, segName(201))
	}
}
