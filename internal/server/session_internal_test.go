package server

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamcover"
)

func newTestDurSession(t *testing.T, name string) *session {
	t.Helper()
	dur, err := openDurability(t.TempDir(), name, 0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	est, err := streamcover.NewEstimator(50, 500, 3, 4, streamcover.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	sess := newSessionWith(name, 50, 500, 3, 4, 1, 8, nil, est)
	sess.dur = dur
	t.Cleanup(func() {
		sess.close()
		dur.close()
	})
	return sess
}

// TestDuplicateAckWaitsForInFlightOriginal pins the no-acked-data-loss
// guarantee in the reconnect window: a duplicate (source, seq) arriving
// while the original batch is still inside the WAL append (group-commit
// fsync) must not be acknowledged until the original is durable. Acking
// early would let a crash before the original's fsync lose a batch the
// duplicate's ack vouched for.
func TestDuplicateAckWaitsForInFlightOriginal(t *testing.T) {
	sess := newTestDurSession(t, "seqdup")
	sets, elems := []uint32{1, 3}, []uint32{2, 4}
	rec := []byte{0x00, 0x01, 0x02}

	parked := make(chan struct{})
	release := make(chan struct{})
	released := false
	// On any failure path, unpark the original so the session cleanup's
	// ops.Wait doesn't hang the test binary.
	defer func() {
		if !released {
			close(release)
		}
	}()
	var once sync.Once
	testHookAfterAccept = func(source, seq uint64) {
		once.Do(func() {
			close(parked)
			<-release
		})
	}
	defer func() { testHookAfterAccept = nil }()

	origDone := make(chan error, 1)
	go func() {
		applied, err := sess.ingestSeq(7, 1, rec, sets, elems)
		if err == nil && !applied {
			t.Error("original ingest reported duplicate")
		}
		origDone <- err
	}()
	<-parked

	dupDone := make(chan error, 1)
	var dupApplied atomic.Bool
	go func() {
		applied, err := sess.ingestSeq(7, 1, rec, sets, elems)
		dupApplied.Store(applied)
		dupDone <- err
	}()

	select {
	case <-dupDone:
		t.Fatal("duplicate acknowledged while the original was still in flight")
	case <-time.After(50 * time.Millisecond):
	}

	released = true
	close(release)
	if err := <-origDone; err != nil {
		t.Fatalf("original ingest: %v", err)
	}
	select {
	case err := <-dupDone:
		if err != nil {
			t.Fatalf("duplicate ingest: %v", err)
		}
		if dupApplied.Load() {
			t.Fatal("duplicate was applied, want recognized-and-dropped")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("duplicate never acknowledged after the original settled")
	}
	if got := sess.dur.wal.LastPos(); got != 1 {
		t.Fatalf("WAL holds %d records, want 1 (duplicate must not be logged)", got)
	}
}

// TestOverlapAckAwaitsBatchDurability pins the fsync/apply-overlap
// contract: the WAL append and the queue dispatch run concurrently, but
// ingestSeq must not return (and so the server must not ack) until the
// append settles. The test parks the append via the injectable appendFn,
// observes that the batch has already been dispatched (the overlap is
// real), and verifies the call is still blocked until the append is
// released.
func TestOverlapAckAwaitsBatchDurability(t *testing.T) {
	sess := newTestDurSession(t, "overlap")
	sets, elems := []uint32{1, 3}, []uint32{2, 4}
	rec := []byte{0x00, 0x01}

	parked := make(chan struct{})
	release := make(chan struct{})
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()
	real := sess.dur.wal
	sess.dur.appendFn = func(rec []byte) (uint64, error) {
		close(parked)
		<-release
		return real.Append(rec)
	}

	done := make(chan error, 1)
	go func() {
		applied, err := sess.ingestSeq(11, 1, rec, sets, elems)
		if err == nil && !applied {
			t.Error("original ingest reported duplicate")
		}
		done <- err
	}()
	<-parked

	// The dispatch half of the overlap must complete while the append is
	// still parked.
	deadline := time.Now().Add(5 * time.Second)
	for sess.batches.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("batch never dispatched while the append was in flight")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("ingest returned before the WAL append settled: ack would not imply durability")
	case <-time.After(50 * time.Millisecond):
	}

	released = true
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if got := sess.dur.wal.LastPos(); got != 1 {
		t.Fatalf("WAL holds %d records, want 1", got)
	}
}

// TestAppendFailureDegradesBatchSession pins the overlap failure
// contract: when the WAL append fails, the batch has already been applied
// to the estimator, so the session must (a) keep the advanced dedup horizon
// — a resend of the same seq must not be double-applied — and (b) reject
// every later ingest with the typed transient ErrDegraded rather than
// acking, because an ack would claim a durability the session cannot
// currently provide. Once the fault clears, one recovery pass brings the
// session back to healthy in place, with the applied-but-not-durable
// batch captured by the recovery checkpoint.
func TestAppendFailureDegradesBatchSession(t *testing.T) {
	sess := newTestDurSession(t, "degrade")
	// Pin the degraded window open: the background loop must not race the
	// assertions below, so recovery happens only when the test asks.
	sess.retryMin = time.Hour
	sess.retryMax = time.Hour
	sets, elems := []uint32{2}, []uint32{7}
	rec := []byte{0x02}
	wantErr := errors.New("write error")
	sess.dur.appendFn = func(rec []byte) (uint64, error) { return 0, wantErr }

	applied, err := sess.ingestSeq(5, 1, rec, sets, elems)
	if err == nil || !errors.Is(err, wantErr) {
		t.Fatalf("ingestSeq error = %v, want wrapped %v", err, wantErr)
	}
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("ingestSeq error = %v, want typed ErrDegraded", err)
	}
	if applied {
		t.Fatal("failed ingest reported applied=true (would be acked)")
	}
	if got := sess.batches.Load(); got != 1 {
		t.Fatalf("batch dispatch count %d, want 1 (the batch IS applied in memory)", got)
	}
	if st, _ := sess.health(); st != "degraded" {
		t.Fatalf("health = %q, want degraded", st)
	}

	// The horizon must be kept so the inevitable client resend is not
	// applied a second time — and the resend must get the typed transient
	// error, never a false durability ack.
	sess.dmu.Lock()
	entry := sess.dedup[5]
	sess.dmu.Unlock()
	if entry.seq != 1 || entry.done != nil {
		t.Fatalf("dedup entry = %+v, want settled at seq 1", entry)
	}
	if _, err := sess.ingestSeq(5, 1, rec, sets, elems); !errors.Is(err, ErrDegraded) {
		t.Fatalf("resend of the non-durable batch: err = %v, want ErrDegraded", err)
	}
	if sess.batches.Load() != 1 {
		t.Fatal("resend was applied a second time")
	}

	// Fresh sequences and unsequenced ingests are rejected too, with the
	// same typed error — but queries keep working on the in-memory state.
	if _, err := sess.ingestSeq(5, 2, rec, sets, elems); !errors.Is(err, ErrDegraded) {
		t.Fatalf("later sequence: err = %v, want ErrDegraded", err)
	}
	if err := sess.ingest(sets, elems, rec); !errors.Is(err, ErrDegraded) {
		t.Fatalf("unsequenced ingest: err = %v, want ErrDegraded", err)
	}
	if _, err := sess.query(nil); err != nil {
		t.Fatalf("query on a degraded session: %v", err)
	}

	// Clear the fault and recover in place: the session returns to
	// healthy, the next sequence is accepted, and nothing was lost or
	// double-applied.
	sess.dur.appendFn = nil
	if !sess.tryRecover() {
		t.Fatal("tryRecover failed after the fault cleared")
	}
	if err := sess.degraded(); err != nil {
		t.Fatalf("session still degraded after recovery: %v", err)
	}
	if st, _ := sess.health(); st != "ok" {
		t.Fatalf("health = %q after recovery, want ok", st)
	}
	applied, err = sess.ingestSeq(5, 2, rec, sets, elems)
	if err != nil || !applied {
		t.Fatalf("post-recovery ingest: applied=%v err=%v, want applied, nil", applied, err)
	}
	if got := sess.batches.Load(); got != 2 {
		t.Fatalf("batch dispatch count %d after recovery, want 2", got)
	}
}

// TestDispatchBatchAllocsSteadyState asserts the dispatch hot path stops
// allocating once warm: each batch's column copy reuses a pooled buffer
// that the apply goroutine hands back after processing. The bound is
// loose (the estimator's processing is counted too, and the race detector
// drops pooled buffers at random) but below a fresh buffer per batch.
func TestDispatchBatchAllocsSteadyState(t *testing.T) {
	est, err := streamcover.NewEstimator(50, 500, 3, 4, streamcover.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	var metrics Metrics
	sess := newSessionWith("allocs", 50, 500, 3, 4, 1, 8, &metrics, est)
	defer sess.close()

	sets := make([]uint32, 512)
	elems := make([]uint32, 512)
	for i := range sets {
		sets[i], elems[i] = uint32(i%50), uint32(i%500)
	}
	run := func() {
		want := metrics.BatchesProcessed.Load() + 1
		sess.dispatch(sets, elems)
		// Wait for the apply goroutine to finish the batch — it pools the
		// buffer before counting it — so the next dispatch reuses it.
		deadline := time.Now().Add(5 * time.Second)
		for metrics.BatchesProcessed.Load() < want {
			if time.Now().After(deadline) {
				t.Fatal("batch never applied")
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	for i := 0; i < 32; i++ { // warm the pool and the estimator scratch
		run()
	}
	avg := testing.AllocsPerRun(64, run)
	if avg > 2 {
		t.Fatalf("dispatch allocates %.1f objects per batch once warm, want <= 2", avg)
	}
}

// TestIngestSeqConcurrentSameSource drives many interleaved sequences and
// duplicates from one source through the sequenced path with a real
// fsyncing WAL. Every sequence must be applied at most once, the WAL must
// hold exactly the applied batches, and the surviving horizon must be the
// highest accepted sequence (run with -race to police the handshake).
func TestIngestSeqConcurrentSameSource(t *testing.T) {
	sess := newTestDurSession(t, "seqrace")
	sets, elems := []uint32{9}, []uint32{9}
	rec := []byte{0x01}

	const goroutines, maxSeq = 8, 40
	var applied atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for seq := uint64(1); seq <= maxSeq; seq++ {
				ok, err := sess.ingestSeq(3, seq, rec, sets, elems)
				if err != nil {
					t.Errorf("ingestSeq(%d): %v", seq, err)
					return
				}
				if ok {
					applied.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()

	sess.dmu.Lock()
	entry := sess.dedup[3]
	sess.dmu.Unlock()
	if entry.done != nil {
		t.Fatal("dedup entry left in-flight after all ingests returned")
	}
	if entry.seq != maxSeq {
		t.Fatalf("final horizon %d, want %d", entry.seq, maxSeq)
	}
	got := applied.Load()
	if got < 1 || got > maxSeq {
		t.Fatalf("%d batches applied, want between 1 and %d", got, maxSeq)
	}
	if walRecs := int64(sess.dur.wal.LastPos()); walRecs != got {
		t.Fatalf("WAL holds %d records but %d batches were applied", walRecs, got)
	}
}
