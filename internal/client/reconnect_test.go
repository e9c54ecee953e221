package client_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"streamcover"
	"streamcover/internal/client"
	"streamcover/internal/fault"
	"streamcover/internal/server"
)

// newChaosProxy stands a fault.Proxy in front of a healthy upstream so
// tests can sever every live connection on demand, simulating a network
// blip without touching the server (whose in-memory session and dedup
// state must survive).
func newChaosProxy(t *testing.T, target string) *fault.Proxy {
	t.Helper()
	p, err := fault.NewProxy(target)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// TestSessionClosedTyped: without WithReconnect, a server going away
// mid-conversation must surface as the typed ErrSessionClosed, not a raw
// TCP error the caller has to string-match.
func TestSessionClosedTyped(t *testing.T) {
	s := server.New(server.Config{QueueDepth: 2})
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(s.TCPAddr().String(), client.WithBatchSize(16))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Create("typed", 100, 1000, 5, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Send(make([]streamcover.Edge, 16)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// The first few calls race the client noticing the close; the typed
	// error must appear within a couple of attempts and then stick.
	var got error
	for i := 0; i < 20 && got == nil; i++ {
		if err := sess.Send(make([]streamcover.Edge, 16)); err != nil {
			got = err
			break
		}
		if err := sess.Flush(); err != nil {
			got = err
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got == nil {
		t.Fatal("no error after server shutdown")
	}
	if !errors.Is(got, client.ErrSessionClosed) {
		t.Fatalf("error %v is not typed as ErrSessionClosed", got)
	}
	// And it is sticky: the next operation reports the same condition.
	if err := sess.Flush(); !errors.Is(err, client.ErrSessionClosed) {
		t.Fatalf("subsequent error %v is not typed as ErrSessionClosed", err)
	}
}

// TestReconnectExactlyOnceThroughProxy severs the connection repeatedly
// mid-pipeline. The reconnecting client re-creates its session and
// resends unacknowledged batches; the server's (source, seq) dedup drops
// anything that was actually applied before the cut, so the final edge
// count is exact — no loss, no double-counting.
func TestReconnectExactlyOnceThroughProxy(t *testing.T) {
	s := startServer(t)
	p := newChaosProxy(t, s.TCPAddr().String())
	c, err := client.Dial(p.Addr(),
		client.WithBatchSize(128), client.WithMaxPending(4),
		client.WithReconnect(20), client.WithBackoff(2*time.Millisecond, 20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Create("flaky", 100, 1000, 5, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	edges := make([]streamcover.Edge, 8000)
	for i := range edges {
		edges[i] = streamcover.Edge{Set: uint32(i % 100), Elem: uint32((i * 7) % 1000)}
	}
	const cuts = 4
	chunk := len(edges) / cuts
	for i := 0; i < cuts; i++ {
		if err := sess.Send(edges[i*chunk : (i+1)*chunk]); err != nil {
			t.Fatalf("send after %d cuts: %v", i, err)
		}
		p.DropAll() // mid-pipeline: some batches are likely in flight, unacked
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
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
}

// TestReconnectGivesUp: when every redial fails, the client reports the
// typed ErrSessionClosed after exhausting its attempt budget rather than
// retrying forever.
func TestReconnectGivesUp(t *testing.T) {
	s := server.New(server.Config{QueueDepth: 2})
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(s.TCPAddr().String(),
		client.WithBatchSize(16),
		client.WithReconnect(2), client.WithBackoff(time.Millisecond, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Create("doomed", 100, 1000, 5, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Abort() // port closed; every reconnect attempt must fail
	var got error
	deadline := time.Now().Add(10 * time.Second)
	for got == nil && time.Now().Before(deadline) {
		if err := sess.Send(make([]streamcover.Edge, 16)); err != nil {
			got = err
			break
		}
		got = sess.Flush()
	}
	if got == nil {
		t.Fatal("no error although the server is gone and reconnects are capped")
	}
	if !errors.Is(got, client.ErrSessionClosed) {
		t.Fatalf("error %v is not typed as ErrSessionClosed", got)
	}
}
