package client_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"streamcover"
	"streamcover/internal/client"
	"streamcover/internal/server"
)

func startServer(t *testing.T) *server.Server {
	t.Helper()
	s := server.New(server.Config{QueueDepth: 2})
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// TestBatchingWriter verifies Send coalesces edges into batch-sized
// frames: 10 batch-fulls of edges plus a remainder must reach the server
// as exactly 11 ingest frames.
func TestBatchingWriter(t *testing.T) {
	s := startServer(t)
	c, err := client.Dial(s.TCPAddr().String(),
		client.WithBatchSize(64), client.WithMaxPending(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Create("b", 100, 1000, 5, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	edges := make([]streamcover.Edge, 64*10+7)
	for i := range edges {
		edges[i] = streamcover.Edge{Set: uint32(i % 100), Elem: uint32(i % 1000)}
	}
	// Feed in awkward chunk sizes; batching is by edge count, not call.
	for lo := 0; lo < len(edges); lo += 100 {
		hi := lo + 100
		if hi > len(edges) {
			hi = len(edges)
		}
		if err := sess.Send(edges[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().Batches.Load(); got != 11 {
		t.Errorf("server received %d batches, want 11", got)
	}
	if got := s.Metrics().EdgesIngested.Load(); got != int64(len(edges)) {
		t.Errorf("server received %d edges, want %d", got, len(edges))
	}
	// Flush with nothing buffered is a no-op barrier.
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().Batches.Load(); got != 11 {
		t.Errorf("empty flush sent a batch: %d", got)
	}
}

// TestAsyncErrorSurfaces checks that an error the server reports for a
// pipelined batch surfaces on a later call, not silently.
func TestAsyncErrorSurfaces(t *testing.T) {
	s := startServer(t)
	c, err := client.Dial(s.TCPAddr().String(), client.WithBatchSize(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Create("x", 100, 1000, 5, 4, 1); err != nil {
		t.Fatal(err)
	}
	// An attached session bypasses client-side dim validation, so a bad
	// batch reaches the server… except Send without dims is refused.
	bad := c.Session("x")
	if err := bad.Send([]streamcover.Edge{{Set: 0, Elem: 0}}); err == nil {
		t.Error("Send on attached session without dims succeeded")
	}
	// Target a session that doesn't exist: the server rejects each batch;
	// the error must surface by Flush at the latest.
	ghost, err := c.Create("ghost-keeper", 100, 1000, 5, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ghost.CloseSession(); err != nil {
		t.Fatal(err)
	}
	err = ghost.Send(make([]streamcover.Edge, 40)) // 10 pipelined batches
	if err == nil {
		err = ghost.Flush()
	}
	if err == nil {
		t.Error("ingest into deleted session reported no error")
	}
}

func TestQueryViaAttachedSession(t *testing.T) {
	s := startServer(t)
	c, err := client.Dial(s.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Create("q", 100, 1000, 5, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	edges := make([]streamcover.Edge, 500)
	for i := range edges {
		edges[i] = streamcover.Edge{Set: uint32(i % 100), Elem: uint32(i % 1000)}
	}
	if err := sess.Send(edges); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	// A second client attaches by name and queries without knowing dims.
	c2, err := client.Dial(s.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	res, err := c2.Session("q").Query()
	if err != nil {
		t.Fatal(err)
	}
	if res.Edges != len(edges) {
		t.Errorf("attached query saw %d edges, want %d", res.Edges, len(edges))
	}
}

// TestAckObserver asserts every acknowledged sequenced batch reports its
// edge count and a positive client-observed latency, exactly once.
func TestAckObserver(t *testing.T) {
	s := startServer(t)
	var mu sync.Mutex
	var edges []int
	var lats []time.Duration
	c, err := client.Dial(s.TCPAddr().String(),
		client.WithBatchSize(100),
		client.WithAckObserver(func(n int, d time.Duration) {
			mu.Lock()
			edges = append(edges, n)
			lats = append(lats, d)
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Create("obs", 10, 100, 2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]streamcover.Edge, 250)
	for i := range in {
		in[i] = streamcover.Edge{Set: uint32(i % 10), Elem: uint32(i % 100)}
	}
	if err := sess.Send(in); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(edges) != 3 { // 100 + 100 + 50 (flush)
		t.Fatalf("observed %d acks (%v), want 3", len(edges), edges)
	}
	total := 0
	for i, n := range edges {
		total += n
		if lats[i] < 0 {
			t.Errorf("ack %d: negative latency %v", i, lats[i])
		}
	}
	if total != len(in) {
		t.Fatalf("observed %d edges, want %d", total, len(in))
	}
}

// TestFlushInterval asserts a batch smaller than the pipeline window is
// pushed to the wire (and acked) without any round trip forcing it out —
// the open-loop pacing case, where frames must not rot in the write
// buffer between paced sends.
func TestFlushInterval(t *testing.T) {
	s := startServer(t)
	acked := make(chan int, 16)
	c, err := client.Dial(s.TCPAddr().String(),
		client.WithBatchSize(100),
		client.WithFlushInterval(2*time.Millisecond),
		client.WithAckObserver(func(n int, d time.Duration) { acked <- n }))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Create("trickle", 10, 100, 2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]streamcover.Edge, 100) // exactly one wire batch
	for i := range in {
		in[i] = streamcover.Edge{Set: uint32(i % 10), Elem: uint32(i % 100)}
	}
	if err := sess.Send(in); err != nil {
		t.Fatal(err)
	}
	// No Flush, no further sends: only the background flusher can get
	// this batch onto the wire.
	select {
	case n := <-acked:
		if n != 100 {
			t.Fatalf("acked %d edges, want 100", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("batch never acked: flush interval did not push it")
	}
}
