package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"streamcover/internal/fault"
)

func collect(t *testing.T, l *Log, from uint64) map[uint64][]byte {
	t.Helper()
	out := map[uint64][]byte{}
	if err := l.Replay(from, func(pos uint64, payload []byte) error {
		out[pos] = append([]byte{}, payload...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64][]byte{}
	for i := 1; i <= 50; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, i*7)
		pos, err := l.Append(payload)
		if err != nil {
			t.Fatal(err)
		}
		if pos != uint64(i) {
			t.Fatalf("position %d, want %d", pos, i)
		}
		want[pos] = payload
	}
	if l.LastPos() != 50 {
		t.Fatalf("LastPos %d, want 50", l.LastPos())
	}
	got := collect(t, l, 1)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for pos, payload := range want {
		if !bytes.Equal(got[pos], payload) {
			t.Fatalf("record %d corrupted", pos)
		}
	}
	// Partial replay.
	if got := collect(t, l, 31); len(got) != 20 {
		t.Fatalf("replay from 31 returned %d records, want 20", len(got))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReopenContinuesPositions(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pos, err := l2.Append([]byte("after reopen"))
	if err != nil {
		t.Fatal(err)
	}
	if pos != 6 {
		t.Fatalf("position after reopen %d, want 6", pos)
	}
	got := collect(t, l2, 1)
	if len(got) != 6 || string(got[6]) != "after reopen" {
		t.Fatalf("unexpected replay after reopen: %d records", len(got))
	}
	l2.Close()
}

func TestSegmentRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		if _, err := l.Append(bytes.Repeat([]byte{byte(i)}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	segsBefore, err := listSegments(fault.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segsBefore) < 4 {
		t.Fatalf("expected several segments, got %d", len(segsBefore))
	}
	// All records must still replay across segment boundaries.
	if got := collect(t, l, 1); len(got) != 40 {
		t.Fatalf("replayed %d records, want 40", len(got))
	}
	// Truncation below 30 removes whole older segments but keeps >= 30.
	if err := l.TruncateBefore(30); err != nil {
		t.Fatal(err)
	}
	segsAfter, err := listSegments(fault.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segsAfter) >= len(segsBefore) {
		t.Fatalf("truncation removed nothing (%d -> %d segments)", len(segsBefore), len(segsAfter))
	}
	got := collect(t, l, 30)
	for pos := uint64(30); pos <= 40; pos++ {
		if _, ok := got[pos]; !ok {
			t.Fatalf("record %d lost by truncation", pos)
		}
	}
	// The active segment survives even if fully below the cutoff.
	if err := l.TruncateBefore(1000); err != nil {
		t.Fatal(err)
	}
	if segs, _ := listSegments(fault.OS(), dir); len(segs) == 0 {
		t.Fatal("truncation deleted the active segment")
	}
	if _, err := l.Append([]byte("still writable")); err != nil {
		t.Fatal(err)
	}
	l.Close()
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("record-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, err := listSegments(fault.OS(), dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment: %v %v", segs, err)
	}
	path := filepath.Join(dir, segs[0].name)

	for name, tc := range map[string]struct {
		mutate func([]byte) []byte
		intact int
	}{
		// Both truncations lose the torn record 10; trailing garbage is a
		// torn HEADER, so all 10 complete records survive.
		"truncated mid-record": {func(b []byte) []byte { return b[:len(b)-5] }, 9},
		"truncated mid-header": {func(b []byte) []byte { return b[:len(b)-(len("record-10")+3)] }, 9},
		"garbage appended":     {func(b []byte) []byte { return append(append([]byte{}, b...), 0xde, 0xad, 0xbe) }, 10},
	} {
		t.Run(name, func(t *testing.T) {
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer os.WriteFile(path, orig, 0o644)
			if err := os.WriteFile(path, tc.mutate(orig), 0o644); err != nil {
				t.Fatal(err)
			}
			l2, err := Open(dir, Options{NoSync: true})
			if err != nil {
				t.Fatalf("torn tail must not fail open: %v", err)
			}
			got := collect(t, l2, 1)
			if len(got) != tc.intact {
				t.Fatalf("want the %d intact records, got %d", tc.intact, len(got))
			}
			// The next append lands right after the last intact record.
			pos, err := l2.Append([]byte("replacement"))
			if err != nil {
				t.Fatal(err)
			}
			if pos != uint64(tc.intact)+1 {
				t.Fatalf("append after torn tail at %d, want %d", pos, tc.intact+1)
			}
			l2.Close()
		})
	}
}

func TestCorruptionInsideOlderSegmentFailsReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		if _, err := l.Append(bytes.Repeat([]byte{byte(i)}, 30)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, err := listSegments(fault.OS(), dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want several segments: %v %v", segs, err)
	}
	// Flip a payload byte in the FIRST segment: acknowledged data, must be loud.
	path := filepath.Join(dir, segs[0].name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[recHeader+3] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Replay(1, func(uint64, []byte) error { return nil }); err == nil {
		t.Fatal("corruption in an acknowledged segment must fail replay")
	}
	l2.Close()
}

func TestConcurrentAppendGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 4096}) // sync mode: exercises group commit
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	positions := make([][]uint64, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				pos, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					errs <- err
					return
				}
				positions[w] = append(positions[w], pos)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for w := range positions {
		for i, pos := range positions[w] {
			if seen[pos] {
				t.Fatalf("duplicate position %d", pos)
			}
			seen[pos] = true
			if i > 0 && positions[w][i-1] >= pos {
				t.Fatalf("writer %d positions not monotone", w)
			}
		}
	}
	if got := collect(t, l, 1); len(got) != writers*each {
		t.Fatalf("replayed %d records, want %d", len(got), writers*each)
	}
	l.Close()
}

// TestConcurrentAppendAcrossRotations hammers sync-mode appends through
// many segment rotations. A group-commit leader fsyncs its file outside
// the log mutex; rotation must wait that flush out rather than close the
// file underneath it, which used to surface as a sticky "file already
// closed" sync error that poisoned the whole log.
func TestConcurrentAppendAcrossRotations(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 512}) // sync mode, tiny segments
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 60
	payload := bytes.Repeat([]byte{0xab}, 64)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := l.Append(payload); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if segs, _ := listSegments(fault.OS(), dir); len(segs) < 2 {
		t.Fatalf("want several segments to exercise rotation, got %d", len(segs))
	}
	if got := collect(t, l, 1); len(got) != writers*each {
		t.Fatalf("replayed %d records, want %d", len(got), writers*each)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close after rotations: %v", err)
	}
}

// TestRotationWaitsForInFlightGroupCommit pins the ordering the hammer
// test above can only hit probabilistically: with a group-commit leader
// mid-fsync (syncActive), an append that needs rotation must park rather
// than close the file the leader is flushing — closing it turned the
// leader's already-durable flush into a sticky "file already closed"
// error that poisoned the log.
func TestRotationWaitsForInFlightGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(bytes.Repeat([]byte{1}, 100)); err != nil {
		t.Fatal(err) // overfills the segment: the next append must rotate
	}
	// Pose as an in-flight fsync leader.
	l.mu.Lock()
	l.syncActive = true
	l.mu.Unlock()

	done := make(chan error, 1)
	go func() {
		_, err := l.Append([]byte("x"))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("append finished during an in-flight group commit (err=%v)", err)
	default:
	}
	// The rotation itself must not have happened yet either: no second
	// segment while the leader still owns the file.
	if segs, err := listSegments(fault.OS(), dir); err != nil || len(segs) != 1 {
		t.Fatalf("rotation ran during an in-flight group commit: %d segments (%v)", len(segs), err)
	}

	l.mu.Lock()
	l.syncActive = false
	l.flushCond.Broadcast()
	l.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if segs, _ := listSegments(fault.OS(), dir); len(segs) != 2 {
		t.Fatalf("append did not rotate after the group commit settled: %d segments", len(segs))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOversizedRecordRejected(t *testing.T) {
	l, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(make([]byte, MaxRecord+1)); err == nil {
		t.Fatal("oversized record must be rejected")
	}
	l.Close()
}

// TestAppendAfterCloseResumesEmptySegment pins the parked-log path: a log
// reopened on an active segment that holds no records (a crash between a
// rotation's create and its first record), then closed, must take the
// next append into that segment. Creating the segment anew with O_EXCL
// failed with EEXIST, because the empty segment is named for the very
// position the append receives.
func TestAppendAfterCloseResumesEmptySegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(2)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	pos, err := l.Append([]byte("two"))
	if err != nil {
		t.Fatalf("append after Close: %v", err)
	}
	if pos != 2 {
		t.Fatalf("append landed at %d, want 2", pos)
	}
	got := collect(t, l, 1)
	if len(got) != 2 || string(got[1]) != "one" || string(got[2]) != "two" {
		t.Fatalf("replayed %q, want positions 1 and 2 holding one, two", got)
	}
	if segs, _ := listSegments(fault.OS(), dir); len(segs) != 2 {
		t.Fatalf("%d segments, want 2 (the empty one resumed, not a third)", len(segs))
	}
	l.Close()
}

// FuzzWALSegment writes arbitrary bytes as a log's only segment. Open
// either fails or keeps the segment's intact prefix, and then every
// reader agrees on it: Replay from 1 delivers exactly LastPos records, a
// Reader from 1 delivers the same payloads, and a reopen reports the same
// LastPos.
func FuzzWALSegment(f *testing.F) {
	var intact []byte
	for _, p := range []string{"one", "two", "three"} {
		intact = binary.LittleEndian.AppendUint32(intact, uint32(len(p)))
		intact = binary.LittleEndian.AppendUint32(intact, crc32.Checksum([]byte(p), castagnoli))
		intact = append(intact, p...)
	}
	f.Add(intact)
	f.Add(intact[:len(intact)-2]) // torn tail
	flipped := bytes.Clone(intact)
	flipped[recHeader+len("one")+4] ^= 1 // the second record's CRC
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{NoSync: true})
		if err != nil {
			return
		}
		defer l.Close()
		last := l.LastPos()
		got := collect(t, l, 1)
		if uint64(len(got)) != last {
			t.Fatalf("Replay(1) delivered %d records, LastPos %d", len(got), last)
		}
		r, err := l.OpenReader(1)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for pos := uint64(1); ; pos++ {
			p, payload, err := r.Next()
			if errors.Is(err, ErrCaughtUp) && pos == last+1 {
				break
			}
			if err != nil || p != pos || !bytes.Equal(payload, got[pos]) {
				t.Fatalf("Reader at %d: (%d, %q, %v), want Replay's record %q", pos, p, payload, err, got[pos])
			}
		}
		l2, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer l2.Close()
		if l2.LastPos() != last {
			t.Fatalf("reopen LastPos %d, want %d", l2.LastPos(), last)
		}
	})
}
