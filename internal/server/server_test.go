package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"streamcover"
	"streamcover/internal/client"
	"streamcover/internal/server"
	"streamcover/internal/stream"
	"streamcover/internal/wire"
	"streamcover/internal/workload"
)

// startServer launches a server on loopback ports and tears it down with
// the test.
func startServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	s := server.New(cfg)
	if err := s.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

// plantedStream generates a deterministic shuffled workload.
func plantedStream(seed int64) (edges []streamcover.Edge, m, n, k int) {
	rng := rand.New(rand.NewSource(seed))
	in := workload.PlantedCover(6000, 600, 15, 0.8, 5, rng)
	raw := stream.Linearize(in.System, stream.Shuffled, rng).Edges()
	edges = make([]streamcover.Edge, len(raw))
	for i, e := range raw {
		edges[i] = streamcover.Edge(e)
	}
	return edges, in.System.M(), in.System.N, in.K
}

// reference runs the same-seed in-process estimator over the whole stream.
func reference(t *testing.T, edges []streamcover.Edge, m, n, k int, alpha float64, seed int64) streamcover.Result {
	t.Helper()
	est, err := streamcover.NewEstimator(m, n, k, alpha, streamcover.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := est.ProcessAll(edges); err != nil {
		t.Fatal(err)
	}
	return est.Result()
}

func TestEndToEndMatchesInProcess(t *testing.T) {
	const (
		alpha = 4.0
		seed  = int64(7)
	)
	s := startServer(t, server.Config{QueueDepth: 8})
	edges, m, n, k := plantedStream(1)
	want := reference(t, edges, m, n, k, alpha, seed)

	c, err := client.Dial(s.TCPAddr().String(), client.WithBatchSize(1024))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Create("e2e", m, n, k, alpha, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Send(edges); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Query()
	if err != nil {
		t.Fatal(err)
	}
	if got.Edges != len(edges) {
		t.Errorf("server saw %d edges, want %d", got.Edges, len(edges))
	}
	if got.Coverage != want.Coverage || got.Feasible != want.Feasible {
		t.Errorf("server estimate (%v,%v) != in-process (%v,%v)",
			got.Coverage, got.Feasible, want.Coverage, want.Feasible)
	}
	if fmt.Sprint(got.SetIDs) != fmt.Sprint(want.SetIDs) {
		t.Errorf("server sets %v != in-process %v", got.SetIDs, want.SetIDs)
	}
}

// TestConcurrentClientsBitIdentical is the -race regression for the
// sharded ingest path: N goroutines, each with its own connection, feed
// disjoint shards of one stream into one session. The queried result must
// be bit-identical to a single same-seed in-process estimator over the
// concatenated stream (the merge semantics of internal/core/merge.go make
// the sharding transparent).
func TestConcurrentClientsBitIdentical(t *testing.T) {
	const (
		alpha   = 4.0
		seed    = int64(5)
		clients = 8
	)
	s := startServer(t, server.Config{QueueDepth: 4})
	edges, m, n, k := plantedStream(2)
	want := reference(t, edges, m, n, k, alpha, seed)

	setup, err := client.Dial(s.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer setup.Close()
	if _, err := setup.Create("shared", m, n, k, alpha, seed); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := client.Dial(s.TCPAddr().String(),
				client.WithBatchSize(256), client.WithMaxPending(4))
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			sess, err := c.Create("shared", m, n, k, alpha, seed)
			if err != nil {
				errs <- err
				return
			}
			var shard []streamcover.Edge
			for i := ci; i < len(edges); i += clients {
				shard = append(shard, edges[i])
			}
			if err := sess.Send(shard); err != nil {
				errs <- err
				return
			}
			errs <- sess.Flush()
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	got, err := setup.Session("shared").Query()
	if err != nil {
		t.Fatal(err)
	}
	if got.Edges != len(edges) {
		t.Fatalf("server saw %d edges, want %d", got.Edges, len(edges))
	}
	if got.Coverage != want.Coverage || got.Feasible != want.Feasible {
		t.Errorf("sharded estimate (%v,%v) != in-process (%v,%v)",
			got.Coverage, got.Feasible, want.Coverage, want.Feasible)
	}
	if fmt.Sprint(got.SetIDs) != fmt.Sprint(want.SetIDs) {
		t.Errorf("sharded sets %v != in-process %v", got.SetIDs, want.SetIDs)
	}
}

// TestQueryDuringIngest exercises the snapshot path: queries interleave
// with ingest and must return monotonically growing edge counts without
// stalling either side.
func TestQueryDuringIngest(t *testing.T) {
	s := startServer(t, server.Config{QueueDepth: 2})
	edges, m, n, k := plantedStream(3)

	c, err := client.Dial(s.TCPAddr().String(), client.WithBatchSize(512))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Create("live", m, n, k, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	q, err := client.Dial(s.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		prev := 0
		for i := 0; i < 20; i++ {
			res, err := q.Session("live").Query()
			if err != nil {
				t.Errorf("live query: %v", err)
				return
			}
			if res.Edges < prev {
				t.Errorf("edge count went backwards: %d -> %d", prev, res.Edges)
				return
			}
			prev = res.Edges
		}
	}()
	if err := sess.Send(edges); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	<-done
	res, err := sess.Query()
	if err != nil {
		t.Fatal(err)
	}
	if res.Edges != len(edges) {
		t.Errorf("final edge count %d, want %d", res.Edges, len(edges))
	}
}

// TestQuerySeesWholeBatches pins query/batch atomicity: while connection A
// sends sequenced batches of distinct sizes, connection B queries in a
// loop, and every answer must count a prefix of whole batches — never part
// of one. (A session that split each batch across several shard queues
// let a query's clone requests land between one batch's shards.)
func TestQuerySeesWholeBatches(t *testing.T) {
	s := startServer(t, server.Config{QueueDepth: 4})
	const name = "atomic"
	writer := dialRaw(t, s.TCPAddr().String())
	create := wire.Create{Name: name, M: durM, N: durN, K: durK, Alpha: durAlpha, Seed: durSeed}
	writer.expectOK(t, wire.TCreate, create.Encode())

	const batches = 150
	sizes := make([]int, batches)
	prefix := map[int]bool{0: true}
	total := 0
	for i := range sizes {
		sizes[i] = 100 + i
		total += sizes[i]
		prefix[total] = true
	}
	edges := durEdges(9, total)

	reader := dialRaw(t, s.TCPAddr().String())
	stop := make(chan struct{})
	type answer struct {
		edges []int
		err   error
	}
	answers := make(chan answer, 1)
	go func() {
		var seen []int
		for {
			select {
			case <-stop:
				answers <- answer{edges: seen}
				return
			default:
			}
			err := wire.WriteFrame(reader.conn, wire.TQuery, wire.EncodeRef(name))
			var typ byte
			var payload []byte
			if err == nil {
				typ, payload, err = wire.ReadFrame(reader.br, reader.scratch)
			}
			if err == nil && typ != wire.TResult {
				err = fmt.Errorf("query answered 0x%02x: %s", typ, payload)
			}
			var res wire.Result
			if err == nil {
				res, err = wire.DecodeResult(payload)
			}
			if err != nil {
				answers <- answer{err: err}
				return
			}
			seen = append(seen, res.Edges)
		}
	}()

	// The writer pipelines every batch without waiting for acks, so the
	// apply queue stays full and the queries' clone requests contend with
	// batches for its slots.
	var frames bytes.Buffer
	off := 0
	for i, size := range sizes {
		sets := make([]uint32, size)
		elems := make([]uint32, size)
		for j, e := range edges[off : off+size] {
			sets[j], elems[j] = e.Set, e.Elem
		}
		off += size
		payload := wire.EncodeIngestSeqColumns(nil, name, 5, uint64(i+1), sets, elems, durM, durN)
		if err := wire.WriteFrame(&frames, wire.TIngestSeq, payload); err != nil {
			t.Fatal(err)
		}
	}
	written := make(chan error, 1)
	go func() {
		_, err := writer.conn.Write(frames.Bytes())
		written <- err
	}()
	for range sizes {
		typ, payload, err := wire.ReadFrame(writer.br, writer.scratch)
		if err != nil {
			t.Fatal(err)
		}
		if typ != wire.TOK {
			t.Fatalf("batch answered 0x%02x: %s", typ, payload)
		}
	}
	if err := <-written; err != nil {
		t.Fatal(err)
	}
	close(stop)
	got := <-answers
	if got.err != nil {
		t.Fatal(got.err)
	}
	if len(got.edges) == 0 {
		t.Fatal("no query raced the batches")
	}
	for _, e := range got.edges {
		if !prefix[e] {
			t.Fatalf("a query counted %d edges, not a prefix of whole batches (%d queries)", e, len(got.edges))
		}
	}
}

func TestSessionLifecycleAndErrors(t *testing.T) {
	s := startServer(t, server.Config{})
	c, err := client.Dial(s.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Ingest/query against a missing session fail.
	if _, err := c.Session("ghost").Query(); err == nil {
		t.Error("query of missing session succeeded")
	}

	sess, err := c.Create("a", 100, 1000, 5, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Idempotent re-create with identical params is fine…
	if _, err := c.Create("a", 100, 1000, 5, 4, 1); err != nil {
		t.Errorf("idempotent create failed: %v", err)
	}
	// …but differing params are rejected.
	if _, err := c.Create("a", 100, 1000, 5, 8, 1); err == nil {
		t.Error("conflicting create succeeded")
	}
	// Client-side validation rejects out-of-range edges.
	if err := sess.Send([]streamcover.Edge{{Set: 100, Elem: 0}}); err == nil {
		t.Error("out-of-range set accepted")
	}
	if err := sess.Send([]streamcover.Edge{{Set: 0, Elem: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := sess.CloseSession(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Session("a").Query(); err == nil {
		t.Error("query of closed session succeeded")
	}
	// Closing twice errors (already gone).
	if err := c.Session("a").CloseSession(); err == nil {
		t.Error("double close succeeded")
	}
}

func TestHTTPEndpoints(t *testing.T) {
	s := startServer(t, server.Config{})
	edges, m, n, k := plantedStream(4)
	c, err := client.Dial(s.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Create("web", m, n, k, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Send(edges); err != nil {
		t.Fatal(err)
	}
	tcpRes, err := sess.Query()
	if err != nil {
		t.Fatal(err)
	}

	base := "http://" + s.HTTPAddr().String()
	getJSON := func(path string, v any) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}

	var q struct {
		Coverage float64  `json:"coverage"`
		Feasible bool     `json:"feasible"`
		SetIDs   []uint32 `json:"set_ids"`
		Edges    int      `json:"edges"`
	}
	getJSON("/query?session=web", &q)
	if q.Coverage != tcpRes.Coverage || q.Feasible != tcpRes.Feasible || q.Edges != len(edges) {
		t.Errorf("HTTP query %+v != TCP query %+v", q, tcpRes)
	}

	var sessions []struct {
		Name  string `json:"name"`
		M     int    `json:"m"`
		Edges int64  `json:"edges"`
	}
	getJSON("/sessions", &sessions)
	if len(sessions) != 1 || sessions[0].Name != "web" || sessions[0].M != m ||
		sessions[0].Edges != int64(len(edges)) {
		t.Errorf("sessions listing %+v", sessions)
	}

	var metrics struct {
		Counters    map[string]int64 `json:"counters"`
		QueueDepths map[string]int   `json:"queue_depths"`
	}
	getJSON("/metrics", &metrics)
	if metrics.Counters["edges_ingested"] != int64(len(edges)) {
		t.Errorf("metrics edges_ingested = %d, want %d",
			metrics.Counters["edges_ingested"], len(edges))
	}
	if metrics.Counters["queries"] < 2 { // one TCP, one HTTP
		t.Errorf("metrics queries = %d, want >= 2", metrics.Counters["queries"])
	}
	if _, ok := metrics.QueueDepths["web"]; !ok {
		t.Error("metrics missing queue depths for session web")
	}

	resp, err := http.Get(base + "/query?session=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing session: %s", resp.Status)
	}
}

func TestGracefulShutdown(t *testing.T) {
	s := server.New(server.Config{})
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	edges, m, n, k := plantedStream(5)
	c, err := client.Dial(s.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Create("bye", m, n, k, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Send(edges[:1000]); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
	if _, err := client.Dial(s.TCPAddr().String()); err == nil {
		// Accept loop is gone; a dial may connect (backlog) but the next
		// round trip must fail.
		c2, _ := client.Dial(s.TCPAddr().String())
		if c2 != nil {
			if _, err := c2.Create("x", 10, 10, 2, 2, 1); err == nil {
				t.Error("create succeeded after shutdown")
			}
			c2.Close()
		}
	}
}
