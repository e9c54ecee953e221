package server_test

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"streamcover"
	"streamcover/internal/client"
	"streamcover/internal/server"
)

const (
	durM     = 200
	durN     = 2000
	durK     = 5
	durAlpha = 4.0
	durSeed  = int64(7)
)

func durEdges(seed int64, count int) []streamcover.Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]streamcover.Edge, count)
	for i := range edges {
		// Zipf-ish skew so some sets are much larger than others.
		set := uint32(rng.Intn(durM))
		if rng.Intn(3) == 0 {
			set = uint32(rng.Intn(durM / 10))
		}
		edges[i] = streamcover.Edge{Set: set, Elem: uint32(rng.Intn(durN))}
	}
	return edges
}

func startDurServer(t *testing.T, cfg server.Config, addr string) *server.Server {
	t.Helper()
	s := server.New(cfg)
	if err := s.Start(addr, ""); err != nil {
		t.Fatal(err)
	}
	return s
}

func dialDur(t *testing.T, addr string, opts ...client.Option) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func createDur(t *testing.T, c *client.Client, name string) *client.Session {
	t.Helper()
	sess, err := c.Create(name, durM, durN, durK, durAlpha, durSeed)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func sendAll(t *testing.T, sess *client.Session, edges []streamcover.Edge) {
	t.Helper()
	if err := sess.Send(edges); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
}

// referenceResult is what an uninterrupted daemon answers after the
// stream: a same-seed in-process estimator fed every edge, finalized in
// place as a query finalizes the session's live estimator.
func referenceResult(t *testing.T, edges []streamcover.Edge) client.Result {
	t.Helper()
	est, err := streamcover.NewEstimator(durM, durN, durK, durAlpha, streamcover.WithSeed(durSeed))
	if err != nil {
		t.Fatal(err)
	}
	defer est.Close()
	if err := est.ProcessAll(edges); err != nil {
		t.Fatal(err)
	}
	res := est.Result()
	return client.Result{Coverage: res.Coverage, Feasible: res.Feasible, SetIDs: res.SetIDs,
		SpaceWords: res.SpaceWords, Edges: est.Edges()}
}

func requireSameResult(t *testing.T, got, want client.Result, what string) {
	t.Helper()
	if got.Edges != want.Edges {
		t.Fatalf("%s: %d edges, want %d", what, got.Edges, want.Edges)
	}
	if got.Coverage != want.Coverage {
		t.Fatalf("%s: coverage %v, want bit-identical %v", what, got.Coverage, want.Coverage)
	}
	if got.Feasible != want.Feasible || !reflect.DeepEqual(got.SetIDs, want.SetIDs) {
		t.Fatalf("%s: (%v, %v), want (%v, %v)", what, got.Feasible, got.SetIDs, want.Feasible, want.SetIDs)
	}
	if got.SpaceWords != want.SpaceWords {
		t.Fatalf("%s: %d space words, want %d", what, got.SpaceWords, want.SpaceWords)
	}
}

// TestCrashRecoveryBitIdentical is the core durability contract: SIGKILL
// semantics (Abort: no checkpoint, no drain) after a checkpoint plus a
// WAL tail must recover to a state whose future outputs are bit-identical
// to a daemon that never crashed. WALNoSync is safe here because an
// in-process crash loses no page cache.
func TestCrashRecoveryBitIdentical(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{
		QueueDepth: 8,
		DataDir:    dir, CheckpointEvery: -1, WALNoSync: true,
	}
	edges := durEdges(1, 20000)

	s1 := startDurServer(t, cfg, "127.0.0.1:0")
	c1 := dialDur(t, s1.TCPAddr().String(), client.WithBatchSize(512))
	sess1 := createDur(t, c1, "crash")
	sendAll(t, sess1, edges[:8000])
	if err := s1.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	// These batches live only in the WAL tail past the checkpoint.
	sendAll(t, sess1, edges[8000:14000])
	c1.Close()
	s1.Abort()

	s2 := startDurServer(t, cfg, "127.0.0.1:0")
	defer s2.Abort()
	if got := s2.Metrics().ReplayBatches.Load(); got == 0 {
		t.Fatal("recovery replayed no WAL batches")
	}
	c2 := dialDur(t, s2.TCPAddr().String(), client.WithBatchSize(512))
	sess2 := createDur(t, c2, "crash") // idempotent against the recovered session
	sendAll(t, sess2, edges[14000:])
	got, err := sess2.Query()
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, got, referenceResult(t, edges), "recovered estimate")
}

// TestShutdownCheckpointRecovery: a graceful shutdown checkpoints, so a
// restart recovers from the snapshot alone — zero WAL replay — and still
// answers bit-identically.
func TestShutdownCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{
		QueueDepth: 8,
		DataDir:    dir, CheckpointEvery: -1, WALNoSync: true,
	}
	edges := durEdges(2, 12000)

	s1 := startDurServer(t, cfg, "127.0.0.1:0")
	c1 := dialDur(t, s1.TCPAddr().String(), client.WithBatchSize(1024))
	sess1 := createDur(t, c1, "graceful")
	sendAll(t, sess1, edges[:9000])
	c1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s2 := startDurServer(t, cfg, "127.0.0.1:0")
	defer s2.Abort()
	if got := s2.Metrics().ReplayBatches.Load(); got != 0 {
		t.Fatalf("replayed %d batches after a graceful shutdown, want 0", got)
	}
	c2 := dialDur(t, s2.TCPAddr().String(), client.WithBatchSize(1024))
	sess2 := createDur(t, c2, "graceful")
	sendAll(t, sess2, edges[9000:])
	got, err := sess2.Query()
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, got, referenceResult(t, edges), "post-shutdown estimate")
}

// TestCrashRestartWithReconnectingClient drives the full loop one level
// up: the daemon dies mid-conversation and a WithReconnect client rides
// through the restart on the same address, resending what was never
// acknowledged. The final count and estimate must match an uninterrupted
// run exactly (exactly-once ingestion).
func TestCrashRestartWithReconnectingClient(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{
		QueueDepth: 8,
		DataDir:    dir, CheckpointEvery: -1, WALNoSync: true,
	}
	edges := durEdges(3, 16000)

	s1 := startDurServer(t, cfg, "127.0.0.1:0")
	addr := s1.TCPAddr().String()
	c := dialDur(t, addr,
		client.WithBatchSize(256), client.WithMaxPending(4),
		client.WithReconnect(40), client.WithBackoff(5*time.Millisecond, 50*time.Millisecond))
	sess := createDur(t, c, "ride")
	sendAll(t, sess, edges[:6000])
	s1.Abort()
	// Restart on the same port while the client is mid-stream; its
	// redial loop outlives the gap.
	s2 := startDurServer(t, cfg, addr)
	defer s2.Abort()
	sendAll(t, sess, edges[6000:])
	got, err := sess.Query()
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, got, referenceResult(t, edges), "post-restart estimate")
}

// TestMixedWireWALRecovery recovers a WAL tail that spans segment
// rotations. One session ingests 500-edge sequenced batches, with WAL
// segments small enough (4 KiB, about one batch each) that the log
// rotates at nearly every record, a checkpoint lands mid-stream, and the
// daemon then dies with SIGKILL semantics. Recovery must replay exactly
// the 12 tail batches to a state bit-identical to a crash-free daemon's.
// (The name dates from when the tail interleaved row and columnar
// batches, plain and sequenced; only sequenced columnar batches remain.)
func TestMixedWireWALRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{
		QueueDepth: 8,
		DataDir:    dir, CheckpointEvery: -1, WALNoSync: true,
		WALSegmentBytes: 4096, // ~1 batch per segment: the tail spans rotations
	}
	edges := durEdges(5, 12000)

	s1 := startDurServer(t, cfg, "127.0.0.1:0")
	c1 := dialDur(t, s1.TCPAddr().String(), client.WithBatchSize(500))
	sess1 := createDur(t, c1, "mixed")
	sendAll(t, sess1, edges[:6000])
	if err := s1.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	// These batches live only in the WAL tail past the checkpoint.
	sendAll(t, sess1, edges[6000:])
	c1.Close()
	s1.Abort()

	s2 := startDurServer(t, cfg, "127.0.0.1:0")
	defer s2.Abort()
	if got := s2.Metrics().ReplayBatches.Load(); got != 12 {
		t.Fatalf("recovery replayed %d WAL batches, want the 12 tail batches", got)
	}
	got, err := dialDur(t, s2.TCPAddr().String()).Session("mixed").Query()
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, got, referenceResult(t, edges), "recovered estimate")
}

// TestMixedWireTornTailRecovery tears the final record of the log — a
// sequenced columnar batch, the shape a torn disk write would hit last —
// and requires recovery to come up cleanly on the intact prefix,
// bit-identical to a daemon that never saw the torn batch.
func TestMixedWireTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{
		QueueDepth: 8,
		DataDir:    dir, CheckpointEvery: -1, WALNoSync: true,
	}
	edges := durEdges(6, 8000)

	s1 := startDurServer(t, cfg, "127.0.0.1:0")
	c1 := dialDur(t, s1.TCPAddr().String(), client.WithBatchSize(500))
	sess1 := createDur(t, c1, "torn")
	sendAll(t, sess1, edges[:7500])
	sendAll(t, sess1, edges[7500:]) // the last record: one whole batch
	c1.Close()
	s1.Abort()

	// Tear the tail: chop bytes off the end of the newest WAL segment, as
	// a crash mid-write would.
	seg := newestWALSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := startDurServer(t, cfg, "127.0.0.1:0")
	defer s2.Abort()
	got, err := dialDur(t, s2.TCPAddr().String()).Session("torn").Query()
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, got, referenceResult(t, edges[:7500]), "post-torn-tail estimate")
}

// newestWALSegment returns the path of the highest-numbered WAL segment
// under the single session directory inside dataDir.
func newestWALSegment(t *testing.T, dataDir string) string {
	t.Helper()
	sessions, err := os.ReadDir(dataDir)
	if err != nil || len(sessions) != 1 {
		t.Fatalf("want one session dir under %s: %v %v", dataDir, sessions, err)
	}
	walDir := filepath.Join(dataDir, sessions[0].Name(), "wal")
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		t.Fatalf("no WAL segments in %s", walDir)
	}
	sort.Strings(segs)
	return filepath.Join(walDir, segs[len(segs)-1])
}

// TestSequencedDedupInMemory: replay protection works without a data dir
// too — a duplicated (source, seq) batch is acknowledged but not applied.
func TestSequencedDedupInMemory(t *testing.T) {
	s := startDurServer(t, server.Config{QueueDepth: 4}, "127.0.0.1:0")
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	edges := durEdges(4, 3000)
	// Two clients with distinct sources feeding one session: each client's
	// sequences dedup independently.
	cA := dialDur(t, s.TCPAddr().String(), client.WithBatchSize(500))
	cB := dialDur(t, s.TCPAddr().String(), client.WithBatchSize(500))
	sessA := createDur(t, cA, "dedup")
	sessB := createDur(t, cB, "dedup")
	sendAll(t, sessA, edges[:1500])
	sendAll(t, sessB, edges[1500:])
	if got := s.Metrics().EdgesIngested.Load(); got != int64(len(edges)) {
		t.Fatalf("server ingested %d edges, want %d", got, len(edges))
	}
	res, err := sessA.Query()
	if err != nil {
		t.Fatal(err)
	}
	if res.Edges != len(edges) {
		t.Fatalf("query saw %d edges, want %d", res.Edges, len(edges))
	}
}
