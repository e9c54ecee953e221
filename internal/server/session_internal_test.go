package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamcover"
	"streamcover/internal/fault"
	"streamcover/internal/snapshot"
	"streamcover/internal/wire"
)

// newTestDurSession builds a durable session (fsync on) whose WAL and
// checkpoints write through fsys (nil: the real filesystem).
func newTestDurSession(t *testing.T, name string, fsys fault.FS) *session {
	t.Helper()
	dur, err := openDurability(t.TempDir(), name, 0, false, fsys)
	if err != nil {
		t.Fatal(err)
	}
	est, err := streamcover.NewEstimator(50, 500, 3, 4, streamcover.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	sess := blankSession(name, 50, 500, 3, 4, 1, Config{QueueDepth: 8}.withDefaults(), nil)
	sess.dur = dur
	sess.install(est, nil)
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
	sess := newTestDurSession(t, "seqdup", nil)
	sets, elems := []uint32{1, 3}, []uint32{2, 4}
	rec := []byte{0x00, 0x01, 0x02}

	parked := make(chan struct{})
	release := make(chan struct{})
	released := false
	// On any failure path, unpark the original so the session cleanup's
	// close, which waits out every pinned operation, doesn't hang the
	// test binary.
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

// parkingFS blocks the first file Sync made through it — a WAL's first
// group-commit fsync — until release closes, closing parked once it
// blocks.
type parkingFS struct {
	fault.FS
	once            sync.Once
	parked, release chan struct{}
}

func (p *parkingFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	f, err := p.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &parkingFile{File: f, fs: p}, nil
}

type parkingFile struct {
	fault.File
	fs *parkingFS
}

func (f *parkingFile) Sync() error {
	f.fs.once.Do(func() {
		close(f.fs.parked)
		<-f.fs.release
	})
	return f.File.Sync()
}

// TestOverlapAckAwaitsBatchDurability pins the fsync/apply-overlap
// contract: the WAL append and the queue dispatch run concurrently, but
// ingestSeq must not return (and so the server must not ack) until the
// append settles. The test parks the real group-commit fsync in the
// filesystem, observes that the batch has already been dispatched (the
// overlap is real), and verifies the call is still blocked until the
// fsync is released.
func TestOverlapAckAwaitsBatchDurability(t *testing.T) {
	fsys := &parkingFS{FS: fault.OS(), parked: make(chan struct{}), release: make(chan struct{})}
	sess := newTestDurSession(t, "overlap", fsys)
	sets, elems := []uint32{1, 3}, []uint32{2, 4}
	rec := []byte{0x00, 0x01}
	parked, release := fsys.parked, fsys.release
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()

	done := make(chan error, 1)
	go func() {
		applied, err := sess.ingestSeq(11, 1, rec, sets, elems)
		if err == nil && !applied {
			t.Error("original ingest reported duplicate")
		}
		done <- err
	}()
	<-parked

	// The dispatch half of the overlap must complete while the fsync is
	// still parked.
	deadline := time.Now().Add(5 * time.Second)
	for sess.batches.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("batch never dispatched while the fsync was in flight")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("ingest returned before the WAL fsync settled: ack would not imply durability")
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
	inj := fault.NewInjector(fault.OS())
	sess := newTestDurSession(t, "degrade", inj)
	// Pin the degraded window open: the background loop must not race the
	// assertions below, so recovery happens only when the test asks.
	sess.retryMin = time.Hour
	sess.retryMax = time.Hour
	sets, elems := []uint32{2}, []uint32{7}
	rec := []byte{0x02}
	wantErr := errors.New("write error")
	inj.FailWrites(-1, wantErr)

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

	// Fresh sequences and fresh sources are rejected too, with the same
	// typed error — but queries keep working on the in-memory state.
	if _, err := sess.ingestSeq(5, 2, rec, sets, elems); !errors.Is(err, ErrDegraded) {
		t.Fatalf("later sequence: err = %v, want ErrDegraded", err)
	}
	if _, err := sess.ingestSeq(6, 1, rec, sets, elems); !errors.Is(err, ErrDegraded) {
		t.Fatalf("fresh source: err = %v, want ErrDegraded", err)
	}
	if _, err := sess.query(nil); err != nil {
		t.Fatalf("query on a degraded session: %v", err)
	}

	// Clear the fault and recover in place: the session returns to
	// healthy, the next sequence is accepted, and nothing was lost or
	// double-applied.
	inj.Clear()
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

// TestDispatchBatchAllocsSteadyState asserts the dispatch hot path
// allocates no more than one column copy per batch once warm (both
// columns share one allocation). The bound is loose (the estimator's
// processing is counted too) but below a fresh buffer per column.
func TestDispatchBatchAllocsSteadyState(t *testing.T) {
	est, err := streamcover.NewEstimator(50, 500, 3, 4, streamcover.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	var metrics Metrics
	sess := blankSession("allocs", 50, 500, 3, 4, 1, Config{QueueDepth: 8}.withDefaults(), &metrics)
	sess.install(est, nil)
	defer sess.close()

	sets := make([]uint32, 512)
	elems := make([]uint32, 512)
	for i := range sets {
		sets[i], elems[i] = uint32(i%50), uint32(i%500)
	}
	run := func() {
		want := metrics.BatchesProcessed.Load() + 1
		sess.dispatch(sets, elems)
		// Wait for the apply goroutine to finish the batch, so each run
		// counts one whole dispatch and apply.
		deadline := time.Now().Add(5 * time.Second)
		for metrics.BatchesProcessed.Load() < want {
			if time.Now().After(deadline) {
				t.Fatal("batch never applied")
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	for i := 0; i < 32; i++ { // warm the estimator scratch
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
	sess := newTestDurSession(t, "seqrace", nil)
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

// TestNewSessionCheckpointMatchesFreshEstimator: a create writes its first
// checkpoint from the session's fresh estimator before the apply goroutine
// owns it, with no clone. In each of the benchmark's four session shapes
// the file must hold what the clone-based checkpoint wrote: a same-seed
// fresh estimator's encoding at WAL position 0 with no dedup horizons.
// The session's budget charge must be that estimator's 8 × SpaceWords.
func TestNewSessionCheckpointMatchesFreshEstimator(t *testing.T) {
	for _, c := range []wire.Create{
		{Name: "bulk-ingest", M: 2000, N: 100000, K: 40, Alpha: 8, Seed: 1},
		{Name: "paced-tenants", M: 60, N: 500, K: 5, Alpha: 4, Seed: 2},
		{Name: "query-mix", M: 200, N: 2000, K: 10, Alpha: 4, Seed: 3},
		{Name: "crash-recover", M: 2000, N: 20000, K: 40, Alpha: 8, Seed: 4},
	} {
		srv := New(Config{DataDir: t.TempDir(), WALNoSync: true})
		t.Cleanup(srv.Abort)
		if err := srv.createSession(c); err != nil {
			t.Fatal(err)
		}
		sess, err := srv.session(c.Name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := snapshot.ReadFileFS(fault.OS(), filepath.Join(sess.dur.dir, checkpointFile))
		if err != nil {
			t.Fatal(err)
		}
		est, err := streamcover.NewEstimator(c.M, c.N, c.K, c.Alpha, streamcover.WithSeed(c.Seed))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(est.Close)
		blob, err := est.Encode()
		if err != nil {
			t.Fatal(err)
		}
		want := encodeCheckpoint(checkpointState{name: c.Name, m: c.M, n: c.N, k: c.K,
			alpha: c.Alpha, seed: c.Seed, est: blob})
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: the new session's checkpoint (%d bytes) differs from the fresh estimator's (%d bytes)",
				c.Name, len(got), len(want))
		}
		if got, want := sess.residentBytes.Load(), 8*int64(est.SpaceWords()); got != want {
			t.Fatalf("%s: resident charge %d, want 8 × SpaceWords = %d", c.Name, got, want)
		}
	}
}

// recordingFS logs the directory operations made through it.
type recordingFS struct {
	fault.FS
	mu  sync.Mutex
	ops []string
}

func (r *recordingFS) note(op string) {
	r.mu.Lock()
	r.ops = append(r.ops, op)
	r.mu.Unlock()
}

func (r *recordingFS) MkdirAll(path string, perm os.FileMode) error {
	r.note("mkdir " + path)
	return r.FS.MkdirAll(path, perm)
}

func (r *recordingFS) SyncDir(dir string) error {
	r.note("syncdir " + dir)
	return r.FS.SyncDir(dir)
}

func (r *recordingFS) RemoveAll(path string) error {
	r.note("removeall " + path)
	return r.FS.RemoveAll(path)
}

// requireRemovedThenSynced fails unless the ops recorded through rec hold
// "removeall dir" followed, later, by "syncdir parent".
func requireRemovedThenSynced(t *testing.T, rec *recordingFS, dir, parent string) {
	t.Helper()
	rec.mu.Lock()
	ops := slices.Clone(rec.ops)
	rec.mu.Unlock()
	rm := slices.Index(ops, "removeall "+dir)
	if rm < 0 {
		t.Fatalf("%s was not removed through the server's FS: %q", dir, ops)
	}
	if !slices.Contains(ops[rm+1:], "syncdir "+parent) {
		t.Fatalf("%s was not fsynced after %s was removed: %q", parent, dir, ops)
	}
}

// TestFaultFSCreateSyncsDataDir: a directory's entry lives in its parent,
// so startup must fsync the data directory's parent after it creates the
// data directory, and a create must fsync the data directory after it
// makes the session directory and before the create is acknowledged.
// Without those fsyncs a power loss can drop the new session, and every
// batch acked into it.
func TestFaultFSCreateSyncsDataDir(t *testing.T) {
	parent := t.TempDir()
	dataDir := filepath.Join(parent, "data")
	rec := &recordingFS{FS: fault.OS()}
	srv := New(Config{DataDir: dataDir, FS: rec, WALNoSync: true})
	defer srv.Abort()
	if err := srv.recover(); err != nil {
		t.Fatal(err)
	}
	if err := srv.createSession(wire.Create{Name: "durable", M: 50, N: 500, K: 3, Alpha: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	ops := slices.Clone(rec.ops)
	rec.mu.Unlock()
	if made := slices.Index(ops, "mkdir "+dataDir); made < 0 || !slices.Contains(ops[made+1:], "syncdir "+parent) {
		t.Fatalf("startup did not make the data directory through the server's FS and fsync its parent: %q", ops)
	}
	mkdir := slices.Index(ops, "mkdir "+filepath.Join(dataDir, sessionDirName("durable")))
	if mkdir < 0 {
		t.Fatalf("the session directory was not made through the server's FS: %q", ops)
	}
	if !slices.Contains(ops[mkdir+1:], "syncdir "+dataDir) {
		t.Fatalf("the data directory was not fsynced after the session directory was made: %q", ops)
	}
}

// TestFaultFSDeleteSyncsDataDir: deleting a session removes its directory
// through the server's FS and then fsyncs the data directory that held
// its entry, so a power loss cannot bring the session back. Both deletes
// are checked — a client's close, and the startup sweep of a directory
// whose session never wrote its first checkpoint — and a close whose
// removal fails reports the failure instead of acknowledging it.
func TestFaultFSDeleteSyncsDataDir(t *testing.T) {
	dataDir := t.TempDir()
	create := wire.Create{Name: "doomed", M: 50, N: 500, K: 3, Alpha: 4, Seed: 1}
	rec := &recordingFS{FS: fault.OS()}
	srv := New(Config{DataDir: dataDir, FS: rec, WALNoSync: true})
	defer srv.Abort()
	if err := srv.createSession(create); err != nil {
		t.Fatal(err)
	}
	if err := srv.closeSession(create.Name); err != nil {
		t.Fatal(err)
	}
	requireRemovedThenSynced(t, rec, filepath.Join(dataDir, sessionDirName(create.Name)), dataDir)

	orphan := filepath.Join(dataDir, sessionDirName("orphan"))
	if err := os.MkdirAll(filepath.Join(orphan, "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	rec = &recordingFS{FS: fault.OS()}
	swept := New(Config{DataDir: dataDir, FS: rec, WALNoSync: true})
	defer swept.Abort()
	if err := swept.recover(); err != nil {
		t.Fatal(err)
	}
	requireRemovedThenSynced(t, rec, orphan, dataDir)

	inj := fault.NewInjector(fault.OS())
	failing := New(Config{DataDir: dataDir, FS: inj, WALNoSync: true})
	defer failing.Abort()
	if err := failing.createSession(create); err != nil {
		t.Fatal(err)
	}
	inj.FailRemoves(1, nil)
	if err := failing.closeSession(create.Name); err == nil {
		t.Fatal("a close whose directory removal failed was acknowledged")
	}
}

// engineHelpers counts the goroutines running a batch-engine helper.
func engineHelpers() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "core.(*engine).helper(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestIdleSessionClosesEstimator pins the idle contract: once a session
// sees no traffic for scratchIdleAfter, its apply goroutine closes the
// estimator, so the engine helpers stop and take their batch scratch with
// them, and the session holds sketch state only. The next batch restarts
// them, and the state and answer equal a same-seed estimator fed both
// batches.
func TestIdleSessionClosesEstimator(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	before := engineHelpers()
	// paced-tenants' shape: 5 (guess, repetition) units, so the engine
	// runs min(GOMAXPROCS, 5) − 1 = 3 helpers beside the apply goroutine.
	c := wire.Create{Name: "idle", M: 60, N: 500, K: 5, Alpha: 4, Seed: 5}
	srv := New(Config{})
	defer srv.Abort()
	if err := srv.createSession(c); err != nil {
		t.Fatal(err)
	}
	sess, err := srv.session(c.Name)
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(seq int) wire.Result {
		t.Helper()
		sets, elems := testBatch(c, seq)
		if _, err := sess.ingestSeq(1, uint64(seq), nil, sets, elems); err != nil {
			t.Fatal(err)
		}
		res, err := sess.query(nil) // queued behind the batch: returns once it is applied
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	ingest(1)
	if got := engineHelpers() - before; got != 3 {
		t.Fatalf("%d engine helpers after the first batch, want 3", got)
	}
	for deadline := time.Now().Add(20 * scratchIdleAfter); engineHelpers() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d engine helpers still running %v after the last batch, want none", engineHelpers()-before, 20*scratchIdleAfter)
		}
		time.Sleep(scratchIdleAfter / 10)
	}

	got := ingest(2)
	ref, err := streamcover.NewEstimator(c.M, c.N, c.K, c.Alpha, streamcover.WithSeed(c.Seed), streamcover.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 2; seq++ {
		if err := ref.ProcessColumns(testBatch(c, seq)); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := ref.Encode()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	digest, err := srv.SessionDigest(c.Name)
	if err != nil {
		t.Fatal(err)
	}
	if want := hex.EncodeToString(sum[:]); digest != want {
		t.Errorf("digest after idle close and a second batch = %s, want the reference's %s", digest, want)
	}
	want := ref.Result()
	if got.Coverage != want.Coverage || got.Feasible != want.Feasible || got.SpaceWords != want.SpaceWords ||
		!slices.Equal(got.SetIDs, want.SetIDs) || got.Edges != ref.Edges() {
		t.Errorf("answer after idle close = %+v, want the reference's %+v over %d edges", got, want, ref.Edges())
	}
}
