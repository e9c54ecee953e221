package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"streamcover"
	"streamcover/internal/client"
	"streamcover/internal/server"
)

// TestMetricsLatencyPercentiles drives a few batches and a query through a
// live server and asserts that /metrics carries the derived server-side
// p50/p95/p99 for both the ingest and query histograms, plus the raw
// power-of-two buckets the kcoverload collector scrapes.
func TestMetricsLatencyPercentiles(t *testing.T) {
	s := server.New(server.Config{QueueDepth: 8})
	if err := s.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Abort()

	c, err := client.Dial(s.TCPAddr().String(), client.WithBatchSize(64))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Create("hist", 64, 512, 4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	edges := make([]streamcover.Edge, 512)
	for i := range edges {
		edges[i] = streamcover.Edge{Set: uint32(i % 64), Elem: uint32(i % 512)}
	}
	if err := sess.Send(edges); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Query(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", s.HTTPAddr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Counters       map[string]int64 `json:"counters"`
		LatencyBuckets map[string]struct {
			Uppers []int64 `json:"uppers"`
			Counts []int64 `json:"counts"`
		} `json:"latency_buckets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"ingest_batch_p50_nanos", "ingest_batch_p95_nanos", "ingest_batch_p99_nanos",
		"query_p50_nanos", "query_p95_nanos", "query_p99_nanos",
	} {
		if out.Counters[key] <= 0 {
			t.Errorf("counter %s = %d, want > 0", key, out.Counters[key])
		}
	}
	if out.Counters["ingest_batch_p50_nanos"] > out.Counters["ingest_batch_p99_nanos"] {
		t.Error("ingest p50 > p99")
	}
	for _, name := range []string{"ingest_batch_nanos", "query_nanos"} {
		h, ok := out.LatencyBuckets[name]
		if !ok || len(h.Uppers) == 0 || len(h.Uppers) != len(h.Counts) {
			t.Errorf("latency_buckets[%s] missing or malformed: %+v", name, h)
		}
	}
}
