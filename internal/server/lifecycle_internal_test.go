package server

import (
	"bufio"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"streamcover/internal/fault"
	"streamcover/internal/wire"
)

// frameConn is a frame-level test connection: one request, one response.
type frameConn struct {
	net.Conn
	br *bufio.Reader
}

func dialFrames(t *testing.T, addr string) *frameConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &frameConn{Conn: conn, br: bufio.NewReader(conn)}
}

func (c *frameConn) roundTrip(t *testing.T, typ byte, payload []byte) (byte, []byte) {
	t.Helper()
	if err := wire.WriteFrame(c, typ, payload); err != nil {
		t.Fatal(err)
	}
	var scratch []byte
	rtyp, rpayload, err := wire.ReadFrameInto(c.br, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	return rtyp, rpayload
}

// TestDegradedRejectionParksLaterBatches pins the rule that makes
// per-source high-water dedup sound: once a sequenced batch on a
// connection is answered with a transient rejection, no later sequenced
// batch on that connection is applied, even after the cause clears.
// Otherwise the later batch moves the source's horizon past the rejected
// one, and the client's resend of it — the client retires the connection
// and resends from the rejected batch — is acked as a duplicate and never
// applied.
func TestDegradedRejectionParksLaterBatches(t *testing.T) {
	inj := fault.NewInjector(nil)
	srv := New(Config{
		DataDir: t.TempDir(), CheckpointEvery: -1, FS: inj,
		// The test runs recovery itself.
		RetryMin: time.Hour, RetryMax: time.Hour,
	})
	if err := srv.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer srv.Abort()
	addr := srv.TCPAddr().String()

	const name, m, n = "parked", 50, 500
	batch := func(seq uint64) []byte {
		e := uint32(2 * seq)
		return wire.EncodeIngestSeqColumns(nil, name, 9, seq, []uint32{1, 2}, []uint32{e, e + 1}, m, n)
	}
	c := dialFrames(t, addr)
	if typ, msg := c.roundTrip(t, wire.TCreate, wire.Create{Name: name, M: m, N: n, K: 3, Alpha: 4, Seed: 1}.Encode()); typ != wire.TOK {
		t.Fatalf("create answered 0x%02x: %s", typ, msg)
	}
	sess, err := srv.session(name)
	if err != nil {
		t.Fatal(err)
	}

	inj.FailSyncs(1, nil)
	// seq 1 is applied, but its fsync fails: the session degrades.
	if typ, _ := c.roundTrip(t, wire.TIngestSeq, batch(1)); typ != wire.TErrRetry {
		t.Fatalf("seq 1 with a failing fsync answered 0x%02x, want TErrRetry", typ)
	}
	// seq 2 is rejected unapplied while the session is degraded.
	if typ, _ := c.roundTrip(t, wire.TIngestSeq, batch(2)); typ != wire.TErrRetry {
		t.Fatalf("seq 2 on a degraded session answered 0x%02x, want TErrRetry", typ)
	}
	if !sess.tryRecover() {
		t.Fatal("recovery failed")
	}
	// The cause has cleared, but seq 3 follows the rejected seq 2 on the
	// same connection.
	if typ, _ := c.roundTrip(t, wire.TIngestSeq, batch(3)); typ != wire.TErrRetry {
		t.Fatalf("seq 3 behind a rejected batch answered 0x%02x, want TErrRetry", typ)
	}

	// The client's replay: a fresh connection resends every unacked batch.
	r := dialFrames(t, addr)
	for seq := uint64(1); seq <= 3; seq++ {
		if typ, msg := r.roundTrip(t, wire.TIngestSeq, batch(seq)); typ != wire.TOK {
			t.Fatalf("resend of seq %d answered 0x%02x: %s", seq, typ, msg)
		}
	}
	typ, payload := r.roundTrip(t, wire.TQuery, wire.EncodeQuery(name, wire.AnyStaleness))
	if typ != wire.TResult {
		t.Fatalf("query answered 0x%02x: %s", typ, payload)
	}
	res, err := wire.DecodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	if res.Edges != 6 {
		t.Fatalf("session holds %d edges, want all 6 acked", res.Edges)
	}
}

// TestScrapeDuringEvictionKeepsLookupsFree pins that a /metrics or
// /sessions scrape never holds the server's session map while it waits on
// one session. An eviction holds its session's lifecycle lock through the
// checkpoint's writes and fsyncs; a scrape that waited on that lock under
// the map lock stalled every session lookup on the server for as long.
func TestScrapeDuringEvictionKeepsLookupsFree(t *testing.T) {
	const latency = 300 * time.Millisecond
	inj := fault.NewInjector(nil)
	srv := New(Config{DataDir: t.TempDir(), CheckpointEvery: -1, FS: inj, MemBudget: 1 << 40})
	defer func() {
		inj.Clear()
		srv.Abort()
	}()
	for _, name := range []string{"cold", "hot"} {
		if err := srv.createSession(wire.Create{Name: name, M: 50, N: 500, K: 3, Alpha: 4, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	cold, err := srv.session("cold")
	if err != nil {
		t.Fatal(err)
	}

	inj.SetLatency(latency) // every write and fsync of the eviction's checkpoint
	evicted := make(chan bool, 1)
	go func() { evicted <- srv.ovs.evict(cold) }()
	for cold.resMu.TryRLock() {
		cold.resMu.RUnlock()
		select {
		case ok := <-evicted:
			t.Fatalf("eviction finished (evicted=%v) before it was seen holding the lock", ok)
		case <-time.After(time.Millisecond):
		}
	}
	scraped := make(chan struct{}, 2)
	h := srv.httpHandler()
	for _, path := range []string{"/metrics", "/sessions"} {
		go func() {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", path, nil))
			scraped <- struct{}{}
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the scrapes reach the cold session

	start := time.Now()
	if _, err := srv.querySession("hot", wire.AnyStaleness); err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	if !<-evicted {
		t.Fatal("the cold session was not evicted")
	}
	<-scraped
	<-scraped
	if took >= latency {
		t.Fatalf("a query on the hot session took %v while the cold one's eviction was scraped", took)
	}
}
