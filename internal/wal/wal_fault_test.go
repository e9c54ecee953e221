package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"streamcover/internal/fault"
)

// openFaulty opens a log in a fresh dir through an injector with small
// segments so rotation is easy to trigger.
func openFaulty(t *testing.T, segBytes int64) (*Log, *fault.Injector, string) {
	t.Helper()
	dir := t.TempDir()
	inj := fault.NewInjector(fault.OS())
	l, err := Open(dir, Options{SegmentBytes: segBytes, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, inj, dir
}

func appendN(t *testing.T, l *Log, n int, tag string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("%s-%03d", tag, i))); err != nil {
			t.Fatalf("append %s-%d: %v", tag, i, err)
		}
	}
}

// collect replays from pos 1 and returns positions and payloads.
func replayAll(t *testing.T, l *Log) (pos []uint64, payloads []string) {
	t.Helper()
	err := l.Replay(1, func(p uint64, b []byte) error {
		pos = append(pos, p)
		payloads = append(payloads, string(b))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return pos, payloads
}

// TestTruncateBeforeInterruptedMidRemoval: the first segment removal
// fails, leaving truncation half done. The error must surface, retained
// records must survive, and a later retry must finish the job.
func TestTruncateBeforeInterruptedMidRemoval(t *testing.T) {
	l, inj, dir := openFaulty(t, 64) // a few records per segment
	appendN(t, l, 20, "rec")
	segs, err := listSegments(fault.OS(), dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %d (err %v)", len(segs), err)
	}
	cut := l.LastPos() - 2

	inj.FailRemoves(1, nil)
	if err := l.TruncateBefore(cut); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("interrupted truncation: err %v, want ErrInjected", err)
	}
	// Everything at or above the cut is still replayable despite the mess.
	var got []uint64
	if err := l.Replay(cut, func(p uint64, _ []byte) error {
		got = append(got, p)
		return nil
	}); err != nil {
		t.Fatalf("replay after interrupted truncation: %v", err)
	}
	if uint64(len(got)) != l.LastPos()-cut+1 || got[0] != cut {
		t.Fatalf("replay from %d returned %v", cut, got)
	}
	// Retry with the fault cleared completes the removal.
	if err := l.TruncateBefore(cut); err != nil {
		t.Fatalf("retry truncation: %v", err)
	}
	after, _ := listSegments(fault.OS(), dir)
	if len(after) >= len(segs) {
		t.Fatalf("no segments removed: %d before, %d after", len(segs), len(after))
	}
}

// TestRotationSyncDirFailureRetries: a directory-fsync failure during
// rotation must not strand the half-created segment — the failed Append
// returns an error and the next Append, with the fault gone, succeeds
// (an orphaned file would make the O_EXCL re-create fail forever).
func TestRotationSyncDirFailureRetries(t *testing.T) {
	l, inj, _ := openFaulty(t, 32)
	appendN(t, l, 3, "pre") // 45 bytes > SegmentBytes: next append rotates

	inj.FailSyncDirs(1, nil)
	if _, err := l.Append([]byte("doomed")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("append during syncdir fault: err %v, want ErrInjected", err)
	}
	if _, err := l.Append([]byte("retried")); err != nil {
		t.Fatalf("append after fault cleared: %v", err)
	}
	_, payloads := replayAll(t, l)
	if payloads[len(payloads)-1] != "retried" {
		t.Fatalf("last payload %q, want \"retried\"", payloads[len(payloads)-1])
	}
}

// TestReplayOverDeletedSegment: a segment holding live (acknowledged)
// records vanishes out from under the log. Replay must fail loudly, not
// skip the hole.
func TestReplayOverDeletedSegment(t *testing.T) {
	l, _, dir := openFaulty(t, 64)
	appendN(t, l, 20, "rec")
	segs, err := listSegments(fault.OS(), dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %d (err %v)", len(segs), err)
	}
	// A hole in the middle trips the contiguity check.
	if err := os.Remove(filepath.Join(dir, segs[1].name)); err != nil {
		t.Fatal(err)
	}
	if err := l.Replay(1, func(uint64, []byte) error { return nil }); err == nil {
		t.Fatal("replay over a missing middle segment succeeded")
	}
	// A hole at the head (positions >= from gone) trips the head check.
	if err := os.Remove(filepath.Join(dir, segs[0].name)); err != nil {
		t.Fatal(err)
	}
	if err := l.Replay(1, func(uint64, []byte) error { return nil }); err == nil {
		t.Fatal("replay over a missing head segment succeeded")
	}
	// From beyond the holes, what is left is still readable.
	if err := l.Replay(segs[2].firstPos, func(uint64, []byte) error { return nil }); err != nil {
		t.Fatalf("replay of intact tail: %v", err)
	}
}

// TestResetAfterFsyncFailure: an fsync error poisons the log (sticky),
// Reset clears it, and appends resume with monotone contiguous positions.
func TestResetAfterFsyncFailure(t *testing.T) {
	l, inj, _ := openFaulty(t, 1<<20)
	appendN(t, l, 3, "pre")

	inj.FailSyncs(1, nil)
	if _, err := l.Append([]byte("unacked")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("append during fsync fault: err %v, want ErrInjected", err)
	}
	// Sticky: the next append fails without touching the disk.
	if _, err := l.Append([]byte("still-poisoned")); err == nil {
		t.Fatal("append succeeded on a poisoned log")
	}
	if err := l.Reset(); err != nil {
		t.Fatalf("reset: %v", err)
	}
	if _, err := l.Append([]byte("post")); err != nil {
		t.Fatalf("append after reset: %v", err)
	}
	pos, payloads := replayAll(t, l)
	for i, p := range pos {
		if p != uint64(i+1) {
			t.Fatalf("positions not contiguous: %v", pos)
		}
	}
	if payloads[len(payloads)-1] != "post" {
		t.Fatalf("last payload %q, want \"post\"", payloads[len(payloads)-1])
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close after reset: %v", err)
	}
}

// TestResetAfterTornWrite: the disk fills mid-record, tearing the tail.
// The error classifies as disk-full; Reset truncates the torn bytes and
// the log resumes cleanly once space is back.
func TestResetAfterTornWrite(t *testing.T) {
	l, inj, _ := openFaulty(t, 1<<20)
	appendN(t, l, 2, "pre")

	inj.SetDiskBudget(4) // tears the next record's 8-byte header
	_, err := l.Append([]byte("torn"))
	if err == nil {
		t.Fatal("append succeeded on a full disk")
	}
	if !fault.IsDiskFull(err) {
		t.Fatalf("err %v does not classify as disk-full", err)
	}
	inj.SetDiskBudget(-1)
	if err := l.Reset(); err != nil {
		t.Fatalf("reset: %v", err)
	}
	if _, err := l.Append([]byte("post")); err != nil {
		t.Fatalf("append after reset: %v", err)
	}
	pos, payloads := replayAll(t, l)
	want := []string{"pre-000", "pre-001", "post"}
	if len(payloads) != len(want) {
		t.Fatalf("replay payloads %v, want %v", payloads, want)
	}
	for i := range want {
		if payloads[i] != want[i] || pos[i] != uint64(i+1) {
			t.Fatalf("replay (%v, %v), want contiguous %v", pos, payloads, want)
		}
	}
}

// TestResetPreservesPositionsWhenSegmentsGone: if every segment vanished,
// Reset must keep the old position space so previously acknowledged
// positions are never reissued to new records.
func TestResetPreservesPositionsWhenSegmentsGone(t *testing.T) {
	l, _, dir := openFaulty(t, 1<<20)
	appendN(t, l, 5, "pre")
	last := l.LastPos()
	segs, _ := listSegments(fault.OS(), dir)
	for _, s := range segs {
		if err := os.Remove(filepath.Join(dir, s.name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset(); err != nil {
		t.Fatalf("reset: %v", err)
	}
	pos, err := l.Append([]byte("fresh"))
	if err != nil {
		t.Fatalf("append after reset: %v", err)
	}
	if pos != last+1 {
		t.Fatalf("append reissued position %d (last acked was %d)", pos, last)
	}
}

// TestTruncateBeforeSyncsDirOnlyWhenRemoving: a truncation changes the
// log directory only when it removes a segment, so one that removes
// nothing (a create's checkpoint at position 0, a checkpoint that frees
// no whole segment) makes no directory fsync, and one that removes
// segments makes exactly one.
func TestTruncateBeforeSyncsDirOnlyWhenRemoving(t *testing.T) {
	fsys := &countingFS{FS: fault.OS()}
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64, NoSync: true, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 20, "rec")
	before, err := listSegments(fault.OS(), dir)
	if err != nil || len(before) < 3 {
		t.Fatalf("want >=3 segments, got %d (err %v)", len(before), err)
	}
	for _, pos := range []uint64{1, before[1].firstPos - 1} {
		fsys.syncDirs = 0
		if err := l.TruncateBefore(pos); err != nil {
			t.Fatal(err)
		}
		if fsys.syncDirs != 0 {
			t.Fatalf("TruncateBefore(%d) removed nothing and made %d directory fsyncs, want 0", pos, fsys.syncDirs)
		}
	}
	fsys.syncDirs = 0
	if err := l.TruncateBefore(l.LastPos()); err != nil {
		t.Fatal(err)
	}
	after, _ := listSegments(fault.OS(), dir)
	if len(after) >= len(before) {
		t.Fatalf("no segment removed: %d before, %d after", len(before), len(after))
	}
	if fsys.syncDirs != 1 {
		t.Fatalf("TruncateBefore removed %d segments with %d directory fsyncs, want 1", len(before)-len(after), fsys.syncDirs)
	}
}
