package client_test

import (
	"context"
	"testing"
	"time"

	"streamcover"
	"streamcover/internal/client"
	"streamcover/internal/fault"
	"streamcover/internal/server"
)

// TestBusyRejectionParksAndReplays drives the full transient-failure
// loop end to end: a sticky fsync fault degrades the server session, so
// pipelined batches come back as TErrRetry. The client must not treat
// that as a batch error — the batches stay parked, Flush keeps replaying
// them with backoff, and once the fault clears and the server recovers in
// place (no restart), every edge lands exactly once.
func TestBusyRejectionParksAndReplays(t *testing.T) {
	inj := fault.NewInjector(nil)
	s := server.New(server.Config{
		QueueDepth:      4,
		DataDir:         t.TempDir(),
		CheckpointEvery: -1,
		FS:              inj,
		RetryMin:        5 * time.Millisecond,
		RetryMax:        50 * time.Millisecond,
	})
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		inj.Clear() // shutdown's final checkpoint must not hit the fault
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})

	c, err := client.Dial(s.TCPAddr().String(),
		client.WithBatchSize(64), client.WithMaxPending(4),
		client.WithReconnect(50), client.WithBackoff(2*time.Millisecond, 20*time.Millisecond),
		client.WithOpTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Create("busy", 100, 1000, 5, 4, 1)
	if err != nil {
		t.Fatal(err)
	}

	edges := make([]streamcover.Edge, 640)
	for i := range edges {
		edges[i] = streamcover.Edge{Set: uint32(i % 100), Elem: uint32((i * 3) % 1000)}
	}

	// Healthy baseline.
	if err := sess.Send(edges[:320]); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}

	// Break fsync stickily and push the rest; the server degrades and
	// busy-rejects. Clear the fault on a timer while Flush is retrying.
	inj.FailSyncs(-1, nil)
	if err := sess.Send(edges[320:]); err != nil {
		t.Fatalf("send during the fault window: %v", err)
	}
	go func() {
		time.Sleep(100 * time.Millisecond)
		inj.Clear()
	}()
	if err := sess.Flush(); err != nil {
		t.Fatalf("flush across the busy window: %v", err)
	}

	res, err := sess.Query()
	if err != nil {
		t.Fatal(err)
	}
	if res.Edges != len(edges) {
		t.Fatalf("server state has %d edges, want exactly %d", res.Edges, len(edges))
	}
	if got := s.Metrics().EdgesIngested.Load(); got != int64(len(edges)) {
		t.Fatalf("server applied %d edges, want exactly %d", got, len(edges))
	}
	if s.Metrics().BusyRejects.Load() == 0 {
		t.Fatal("the fault window produced no busy rejections; the test exercised nothing")
	}
	if s.Metrics().DurabilityRecoveries.Load() == 0 {
		t.Fatal("session never recovered in place")
	}
	if got := s.Metrics().DegradedSessions.Load(); got != 0 {
		t.Fatalf("degraded-sessions gauge stuck at %d after recovery", got)
	}
}
