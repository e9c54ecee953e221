package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"streamcover"
	"streamcover/internal/client"
	"streamcover/internal/fault"
	"streamcover/internal/server"
)

// Oversubscription tests use a deliberately small instance so one
// session's serialized checkpoint is a couple of MB and evict/rehydrate
// cycles take milliseconds, not seconds.
const (
	ovM     = 60
	ovN     = 500
	ovK     = 5
	ovAlpha = 4.0
	ovSeed  = int64(7)
)

func ovEdges(seed int64, count int) []streamcover.Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]streamcover.Edge, count)
	for i := range edges {
		set := uint32(rng.Intn(ovM))
		if rng.Intn(3) == 0 {
			set = uint32(rng.Intn(ovM / 10))
		}
		edges[i] = streamcover.Edge{Set: set, Elem: uint32(rng.Intn(ovN))}
	}
	return edges
}

func createOv(t *testing.T, c *client.Client, name string) *client.Session {
	t.Helper()
	sess, err := c.Create(name, ovM, ovN, ovK, ovAlpha, ovSeed)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func shutdownOv(t *testing.T, s *server.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// sessionResidency scrapes /sessions and returns name → resident.
func sessionResidency(t *testing.T, httpAddr string) map[string]bool {
	t.Helper()
	resp, err := http.Get("http://" + httpAddr + "/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rows []struct {
		Name     string `json:"name"`
		Hydrated bool   `json:"hydrated"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool, len(rows))
	for _, r := range rows {
		out[r.Name] = r.Hydrated
	}
	return out
}

// TestEvictRehydrateBitIdentical is the oversubscription correctness
// contract: a session that is evicted to its checkpoint and rehydrated
// several times mid-stream must end bit-identical — coverage estimate,
// winning set IDs, space accounting — to a session that stayed hydrated
// in memory the whole time. Rehydration reuses the crash-recovery path
// (checkpoint restore + WAL tail replay), so this is the same guarantee
// durability already proves, re-asserted across the eviction lifecycle.
func TestEvictRehydrateBitIdentical(t *testing.T) {
	edges := ovEdges(31, 4096)

	// Reference: no durability, no budget.
	refSrv := startDurServer(t, server.Config{QueueDepth: 8}, "127.0.0.1:0")
	defer shutdownOv(t, refSrv)
	refSess := createOv(t, dialDur(t, refSrv.TCPAddr().String(), client.WithBatchSize(512)), "ref")
	sendAll(t, refSess, edges)
	ref, err := refSess.Query()
	if err != nil {
		t.Fatal(err)
	}

	// Subject: a 1-byte budget, so every checkpoint sweep evicts all
	// evictable sessions except the hottest. "pad" is queried after each
	// chunk so it owns the hottest slot and "subj" is always the eviction
	// victim.
	cfg := server.Config{
		QueueDepth: 8,
		DataDir:    t.TempDir(), CheckpointEvery: -1, WALNoSync: true,
		MemBudget: 1,
	}
	s := server.New(cfg)
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer shutdownOv(t, s)
	c := dialDur(t, s.TCPAddr().String(), client.WithBatchSize(512))
	subj := createOv(t, c, "subj")
	pad := createOv(t, c, "pad")

	const chunks = 4
	per := len(edges) / chunks
	for i := 0; i < chunks; i++ {
		sendAll(t, subj, edges[i*per:(i+1)*per])
		if _, err := pad.Query(); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckpointAll(); err != nil {
			t.Fatal(err)
		}
	}

	got, err := subj.Query()
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, got, ref, "evicted+rehydrated session")
	if ev := s.Metrics().EvictionsTotal.Load(); ev < chunks-1 {
		t.Fatalf("only %d evictions; the subject was never parked", ev)
	}
	if rh := s.Metrics().RehydrateHist.Count(); rh < chunks-1 {
		t.Fatalf("only %d rehydrations; the subject never came back cold", rh)
	}
}

// TestOversubscriptionIngestEvictRace hammers the residency state machine
// from both sides at once: four tenants ingest concurrently while the
// checkpoint cadence keeps charging real sizes against a budget that
// holds only about one of them, so evictions and rehydrations interleave
// with in-flight batches continuously. Clients absorb the typed transient
// rejections (rehydration backlog) with retry. The whole run must be
// exactly-once per tenant. Run under -race this is the data-race proof
// for the eviction/rehydration/ingest interleaving.
func TestOversubscriptionIngestEvictRace(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent eviction soak")
	}
	cfg := server.Config{
		QueueDepth: 4,
		DataDir:    t.TempDir(), CheckpointEvery: 50 * time.Millisecond, WALNoSync: true,
		MemBudget: 3_000_000,
		RetryMin:  5 * time.Millisecond, RetryMax: 50 * time.Millisecond,
	}
	s := server.New(cfg)
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer shutdownOv(t, s)

	const (
		tenants = 4
		rounds  = 6
		batch   = 256
	)
	var wg sync.WaitGroup
	errs := make(chan error, tenants)
	for tn := 0; tn < tenants; tn++ {
		wg.Add(1)
		go func(tn int) {
			defer wg.Done()
			c, err := client.Dial(s.TCPAddr().String(),
				client.WithBatchSize(batch), client.WithMaxPending(4),
				client.WithReconnect(100),
				client.WithBackoff(2*time.Millisecond, 30*time.Millisecond))
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			sess, err := c.Create(fmt.Sprintf("t%d", tn), ovM, ovN, ovK, ovAlpha, ovSeed)
			if err != nil {
				errs <- fmt.Errorf("tenant %d create: %w", tn, err)
				return
			}
			edges := ovEdges(int64(100+tn), rounds*batch)
			for r := 0; r < rounds; r++ {
				if err := sess.Send(edges[r*batch : (r+1)*batch]); err != nil {
					errs <- fmt.Errorf("tenant %d send: %w", tn, err)
					return
				}
				if err := sess.Flush(); err != nil {
					errs <- fmt.Errorf("tenant %d flush: %w", tn, err)
					return
				}
			}
			res, err := sess.Query()
			if err != nil {
				errs <- fmt.Errorf("tenant %d query: %w", tn, err)
				return
			}
			if res.Edges != rounds*batch {
				errs <- fmt.Errorf("tenant %d: %d edges applied, want exactly %d", tn, res.Edges, rounds*batch)
			}
		}(tn)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s.Metrics().EvictionsTotal.Load() == 0 || s.Metrics().RehydrateHist.Count() == 0 {
		t.Fatalf("budget never forced churn (evictions=%d rehydrations=%d); the race surface was not exercised",
			s.Metrics().EvictionsTotal.Load(), s.Metrics().RehydrateHist.Count())
	}
}

// TestQueryDuringRehydration fires concurrent queries across a fleet of
// mostly-evicted sessions: every cold query must transparently rehydrate
// (riding out the bounded admission gate via retry) and answer with the
// session's exact pre-eviction state, even while sibling queries force
// the budget to evict other sessions mid-flight (each rehydration's
// budget check runs concurrently with the others).
func TestQueryDuringRehydration(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent rehydration soak")
	}
	cfg := server.Config{
		QueueDepth: 4,
		DataDir:    t.TempDir(), CheckpointEvery: -1, WALNoSync: true,
		MemBudget: 1,
		RetryMin:  5 * time.Millisecond, RetryMax: 50 * time.Millisecond,
	}
	s := server.New(cfg)
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer shutdownOv(t, s)

	// Populate three tenants with distinct edge counts, then park them:
	// the 1-byte budget evicts everything but the hottest at the sweep.
	const tenants = 3
	seedCl := dialDur(t, s.TCPAddr().String(), client.WithBatchSize(512))
	want := make([]int, tenants)
	for tn := 0; tn < tenants; tn++ {
		sess := createOv(t, seedCl, fmt.Sprintf("q%d", tn))
		want[tn] = (tn + 1) * 512
		sendAll(t, sess, ovEdges(int64(200+tn), want[tn]))
	}
	if err := s.CheckpointAll(); err != nil {
		t.Fatal(err)
	}

	const (
		workers = 8
		loops   = 5
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(s.TCPAddr().String(),
				client.WithReconnect(100),
				client.WithBackoff(2*time.Millisecond, 30*time.Millisecond))
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < loops; i++ {
				tn := (w + i) % tenants
				res, err := c.Session(fmt.Sprintf("q%d", tn)).Query()
				if err != nil {
					errs <- fmt.Errorf("worker %d tenant %d: %w", w, tn, err)
					return
				}
				if res.Edges != want[tn] {
					errs <- fmt.Errorf("worker %d tenant %d: %d edges, want %d", w, tn, res.Edges, want[tn])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s.Metrics().RehydrateHist.Count() == 0 {
		t.Fatal("no query ever hit a cold session; the test exercised nothing")
	}
}

// TestEvictionSkipsDegraded: a degraded session is owned by the recovery
// loop — its in-memory state may be ahead of its checkpoint (parked
// batches, unflushed WAL), so evicting it would hand recovery a stale
// snapshot. The overseer must pass over degraded sessions and take its
// bytes from healthy ones, and the degraded session keeps serving
// queries from memory throughout.
func TestEvictionSkipsDegraded(t *testing.T) {
	inj := fault.NewInjector(nil)
	cfg := server.Config{
		QueueDepth: 4,
		DataDir:    t.TempDir(), CheckpointEvery: -1,
		FS:        inj,
		MemBudget: 1,
		// Slow recovery probes: the degraded window must comfortably
		// outlast the assertions below.
		RetryMin: 2 * time.Second, RetryMax: 4 * time.Second,
	}
	s := server.New(cfg)
	if err := s.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		inj.Clear()
		shutdownOv(t, s)
	})
	httpAddr := s.HTTPAddr().String()

	c := dialDur(t, s.TCPAddr().String(),
		client.WithBatchSize(256), client.WithMaxPending(4),
		client.WithReconnect(100),
		client.WithBackoff(2*time.Millisecond, 30*time.Millisecond))
	bystander := createOv(t, c, "bystander")
	hot := createOv(t, c, "hot")
	sendAll(t, bystander, ovEdges(41, 512))
	sendAll(t, hot, ovEdges(43, 512))

	// "deg" gets its own client so the degradation replay loop can be cut
	// off (by closing the client) once the session is degraded — otherwise
	// its retries would keep touching deg's LRU clock and the eviction
	// order below would be timing-dependent.
	degCl, err := client.Dial(s.TCPAddr().String(),
		client.WithBatchSize(256), client.WithMaxPending(4),
		client.WithReconnect(100),
		client.WithBackoff(2*time.Millisecond, 30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	deg, err := degCl.Create("deg", ovM, ovN, ovK, ovAlpha, ovSeed)
	if err != nil {
		t.Fatal(err)
	}
	degEdges := ovEdges(42, 768)
	sendAll(t, deg, degEdges[:512])

	// Degrade "deg": a sticky fsync fault fails its next WAL append. The
	// server parks the batch for recovery to land; closing the client just
	// stops the replay loop from touching deg's LRU clock.
	inj.FailSyncs(-1, nil)
	if err := deg.Send(degEdges[512:]); err != nil {
		t.Fatal(err)
	}
	flushDone := make(chan error, 1)
	go func() { flushDone <- deg.Flush() }()
	waitHealth(t, httpAddr, "degraded", http.StatusServiceUnavailable)
	inj.Clear() // fault over; recovery heals "deg" at the next probe (≥2s away)
	degCl.Close()
	<-flushDone
	// Close() returns before the server has drained the connection's last
	// replayed frame; that trailing rejection touches deg's LRU clock a
	// few ms later. Let it land before establishing the access order.
	time.Sleep(200 * time.Millisecond)

	// Charge real sizes and re-enforce the 1-byte budget: "hot" is
	// queried last so it owns the protected hottest slot, leaving
	// {bystander, deg} as eviction candidates — of which only the healthy
	// bystander may actually go. CheckpointAll's error (if any) is the
	// degraded session's; the healthy sessions are still swept.
	if _, err := hot.Query(); err != nil {
		t.Fatal(err)
	}
	_ = s.CheckpointAll()

	res := sessionResidency(t, httpAddr)
	if res["bystander"] {
		t.Fatalf("healthy bystander not evicted under pressure: %+v", res)
	}
	if !res["deg"] {
		t.Fatalf("degraded session was evicted out from under the recovery loop: %+v", res)
	}
	if !res["hot"] {
		t.Fatalf("hottest session was evicted: %+v", res)
	}

	// The degraded session still answers from memory.
	if _, err := dialDur(t, s.TCPAddr().String()).Session("deg").Query(); err != nil {
		t.Fatalf("query on protected degraded session: %v", err)
	}

	// After the recovery probe heals the session it serves normally and
	// the batch parked at degrade time has landed exactly once — skipping
	// the eviction is precisely what kept that parked state safe.
	waitHealth(t, httpAddr, "ok", http.StatusOK)
	final, err := dialDur(t, s.TCPAddr().String()).Session("deg").Query()
	if err != nil {
		t.Fatal(err)
	}
	if final.Edges != len(degEdges) {
		t.Fatalf("degraded session ended with %d edges, want exactly %d", final.Edges, len(degEdges))
	}
}

// TestOrphanSessionDirSwept: a crash between session-directory creation
// and the initial checkpoint leaves a directory with no checkpoint —
// nothing acknowledged ever lived there (sessions checkpoint before they
// are published), so startup recovery must reclaim it instead of letting
// dead WAL segments accrete across restarts. Healthy neighbours are
// untouched.
func TestOrphanSessionDirSwept(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{
		QueueDepth: 4,
		DataDir:    dir, CheckpointEvery: -1, WALNoSync: true,
	}
	s1 := startDurServer(t, cfg, "127.0.0.1:0")
	keeper := createOv(t, dialDur(t, s1.TCPAddr().String(), client.WithBatchSize(512)), "keeper")
	sendAll(t, keeper, ovEdges(51, 1024))
	if err := s1.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	shutdownOv(t, s1)

	// Fabricate the orphan: a session directory with WAL debris but no
	// checkpoint, exactly what a crash before the first checkpoint leaves.
	ghost := filepath.Join(dir, "ghost")
	if err := os.MkdirAll(filepath.Join(ghost, "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ghost, "wal", "000001.seg"), []byte("dead segment"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := startDurServer(t, cfg, "127.0.0.1:0")
	defer shutdownOv(t, s2)
	if _, err := os.Stat(ghost); !os.IsNotExist(err) {
		t.Fatalf("orphan session dir survived startup recovery (stat err=%v)", err)
	}
	if got := s2.Metrics().OrphansSwept.Load(); got != 1 {
		t.Fatalf("orphans_swept = %d, want 1", got)
	}
	res, err := dialDur(t, s2.TCPAddr().String()).Session("keeper").Query()
	if err != nil {
		t.Fatal(err)
	}
	if res.Edges != 1024 {
		t.Fatalf("keeper recovered with %d edges, want 1024", res.Edges)
	}
}
