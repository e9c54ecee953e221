package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"streamcover/internal/client"
	"streamcover/internal/fault"
	"streamcover/internal/server"
)

// getHealth fetches /healthz and returns the HTTP status code and the
// decoded server-wide status string.
func getHealth(t *testing.T, httpAddr string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + httpAddr + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer resp.Body.Close()
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	return resp.StatusCode, body.Status
}

// waitHealth polls /healthz until the server-wide status matches.
func waitHealth(t *testing.T, httpAddr, want string, code int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		gotCode, gotStatus := getHealth(t, httpAddr)
		if gotStatus == want && gotCode == code {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz stuck at (%d, %q), want (%d, %q)", gotCode, gotStatus, code, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFsyncFaultDegradesThenRecovers is the headline degradation
// contract: an fsync-error window must move the session to degraded —
// ingest rejected with a typed transient error, queries still served,
// /healthz flipping to 503 — and once the fault clears, the session must
// return to healthy in place, with no restart and no lost or
// double-applied batch.
func TestFsyncFaultDegradesThenRecovers(t *testing.T) {
	inj := fault.NewInjector(nil)
	cfg := server.Config{
		QueueDepth: 4,
		DataDir:    t.TempDir(), CheckpointEvery: -1,
		FS:       inj,
		RetryMin: 5 * time.Millisecond, RetryMax: 50 * time.Millisecond,
	}
	s := server.New(cfg)
	if err := s.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		inj.Clear()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	httpAddr := s.HTTPAddr().String()

	c := dialDur(t, s.TCPAddr().String(),
		client.WithBatchSize(256), client.WithMaxPending(4),
		client.WithReconnect(100), client.WithBackoff(2*time.Millisecond, 20*time.Millisecond))
	sess := createDur(t, c, "degrade")
	edges := durEdges(11, 2048)
	sendAll(t, sess, edges[:1024])
	waitHealth(t, httpAddr, "ok", http.StatusOK)

	// Sticky fsync failure: the next sequenced batch degrades the session.
	// Flush runs concurrently — it pushes the batch to the wire and then
	// keeps replaying it with backoff until the server recovers, so it
	// only returns once the busy window has closed.
	inj.FailSyncs(-1, nil)
	if err := sess.Send(edges[1024:1280]); err != nil {
		t.Fatalf("send into the fault window: %v", err)
	}
	flushDone := make(chan error, 1)
	go func() { flushDone <- sess.Flush() }()
	waitHealth(t, httpAddr, "degraded", http.StatusServiceUnavailable)
	if got := s.Metrics().DegradedSessions.Load(); got != 1 {
		t.Fatalf("degraded-sessions gauge = %d, want 1", got)
	}

	// Queries keep working on the degraded session's in-memory state.
	c2 := dialDur(t, s.TCPAddr().String())
	if _, err := c2.Session("degrade").Query(); err != nil {
		t.Fatalf("query while degraded: %v", err)
	}

	// Clear the fault: the recovery loop brings the session back with no
	// restart, and the parked batches land exactly once.
	inj.Clear()
	waitHealth(t, httpAddr, "ok", http.StatusOK)
	if s.Metrics().DurabilityRecoveries.Load() == 0 {
		t.Fatal("no in-place recovery recorded")
	}
	select {
	case err := <-flushDone:
		if err != nil {
			t.Fatalf("flush across the busy window: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("flush never converged after recovery")
	}
	sendAll(t, sess, edges[1280:])
	res, err := sess.Query()
	if err != nil {
		t.Fatal(err)
	}
	if res.Edges != len(edges) {
		t.Fatalf("final state has %d edges, want exactly %d", res.Edges, len(edges))
	}
	if s.Metrics().WALAppendFailures.Load() == 0 {
		t.Fatal("the fault window never hit a WAL append; the test exercised nothing")
	}
}

// TestDiskFullPutsServerReadOnly: when one session degrades on ENOSPC,
// the whole server sheds ingest — a batch for a different, healthy
// session is busy-rejected too — while queries keep working; lifting the
// budget recovers the server without a restart.
func TestDiskFullPutsServerReadOnly(t *testing.T) {
	inj := fault.NewInjector(nil)
	cfg := server.Config{
		QueueDepth: 4,
		DataDir:    t.TempDir(), CheckpointEvery: -1,
		FS:       inj,
		RetryMin: 5 * time.Millisecond, RetryMax: 50 * time.Millisecond,
	}
	s := server.New(cfg)
	if err := s.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		inj.Clear()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	httpAddr := s.HTTPAddr().String()

	cA := dialDur(t, s.TCPAddr().String(), client.WithBatchSize(256))
	cB := dialDur(t, s.TCPAddr().String(), client.WithBatchSize(256))
	sessA := createDur(t, cA, "full-a")
	sessB := createDur(t, cB, "full-b")
	edges := durEdges(12, 1024)
	sendAll(t, sessA, edges[:256])
	sendAll(t, sessB, edges[256:512])

	// Exhaust the disk: session A's next append tears mid-record with
	// ENOSPC and the server goes read-only.
	inj.SetDiskBudget(8)
	err := sessA.Send(edges[512:768])
	if err == nil {
		err = sessA.Flush()
	}
	if err == nil || !errors.Is(err, client.ErrServerBusy) {
		t.Fatalf("ingest on the full disk: err = %v, want wrapped ErrServerBusy", err)
	}
	waitHealth(t, httpAddr, "read-only", http.StatusServiceUnavailable)
	if got := s.Metrics().DiskFullSessions.Load(); got != 1 {
		t.Fatalf("disk-full-sessions gauge = %d, want 1", got)
	}

	// The healthy session is rejected too — typed, transient, not applied.
	before := s.Metrics().EdgesIngested.Load()
	err = sessB.Send(edges[768:])
	if err == nil {
		err = sessB.Flush()
	}
	if err == nil || !errors.Is(err, client.ErrServerBusy) {
		t.Fatalf("ingest on a healthy session of a read-only server: err = %v, want wrapped ErrServerBusy", err)
	}
	if got := s.Metrics().EdgesIngested.Load(); got != before {
		t.Fatalf("read-only server applied %d edges", got-before)
	}
	// Queries are still served.
	if _, err := dialDur(t, s.TCPAddr().String()).Session("full-b").Query(); err != nil {
		t.Fatalf("query on a read-only server: %v", err)
	}

	// Free the disk: recovery clears the read-only mode and fresh ingest
	// (new client — the old ones hold poisoned connections) works again.
	inj.SetDiskBudget(-1)
	waitHealth(t, httpAddr, "ok", http.StatusOK)
	cC := dialDur(t, s.TCPAddr().String(), client.WithBatchSize(256))
	sessC := createDur(t, cC, "full-b")
	sendAll(t, sessC, edges[768:])
}

// TestSilentPeerReapedByReadDeadline: a client that connects and then
// says nothing must not park a connection handler forever. The read
// deadline reaps it: the server closes the socket and counts the reap.
func TestSilentPeerReapedByReadDeadline(t *testing.T) {
	s := startServer(t, server.Config{
		QueueDepth:  2,
		ReadTimeout: 50 * time.Millisecond,
	})
	conn, err := net.Dial("tcp", s.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Say nothing. The server must hang up on us, observable as EOF (or a
	// reset) on our read well before the test times out.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server sent data to a silent peer")
	} else if os.IsTimeout(err) {
		t.Fatal("server never reaped the silent connection")
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().DeadlineReaps.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("deadline reap not counted")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestOrphanCheckpointTempsSwept: a crash can strand checkpoint.scsn.tmp*
// files (snapshot writes go through a temp file + rename). Startup
// recovery must sweep them so they cannot accumulate forever.
func TestOrphanCheckpointTempsSwept(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{
		QueueDepth: 4,
		DataDir:    dir, CheckpointEvery: -1, WALNoSync: true,
	}
	edges := durEdges(13, 4000)

	s1 := startDurServer(t, cfg, "127.0.0.1:0")
	c1 := dialDur(t, s1.TCPAddr().String(), client.WithBatchSize(512))
	sess1 := createDur(t, c1, "sweep")
	sendAll(t, sess1, edges)
	c1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Strand temp files the way an interrupted checkpoint would.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var sessDir string
	for _, e := range entries {
		if e.IsDir() {
			sessDir = filepath.Join(dir, e.Name())
		}
	}
	if sessDir == "" {
		t.Fatal("no session directory found")
	}
	for i := 0; i < 3; i++ {
		orphan := filepath.Join(sessDir, fmt.Sprintf("checkpoint.scsn.tmp%d", 1000+i))
		if err := os.WriteFile(orphan, []byte("torn checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := startDurServer(t, cfg, "127.0.0.1:0")
	defer s2.Abort()
	left, err := os.ReadDir(sessDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		if strings.HasPrefix(e.Name(), "checkpoint.scsn.tmp") {
			t.Fatalf("orphan %s survived startup recovery", e.Name())
		}
	}
	// And the recovered session still answers correctly.
	res, err := dialDur(t, s2.TCPAddr().String()).Session("sweep").Query()
	if err != nil {
		t.Fatal(err)
	}
	if res.Edges != len(edges) {
		t.Fatalf("recovered session has %d edges, want %d", res.Edges, len(edges))
	}
}
