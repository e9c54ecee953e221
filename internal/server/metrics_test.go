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

// TestMetricsTotalsAreHistogramTotals: /metrics derives its ingest, query
// and rehydration totals from the latency histograms fed at the same call
// sites, so each key equals its histogram's count, sum or mean. A 1-byte
// budget evicts "subj" at a checkpoint and a query rehydrates it, so all
// three histograms hold samples.
func TestMetricsTotalsAreHistogramTotals(t *testing.T) {
	s := server.New(server.Config{
		QueueDepth: 8,
		DataDir:    t.TempDir(), CheckpointEvery: -1, WALNoSync: true,
		MemBudget: 1,
	})
	if err := s.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer shutdownOv(t, s)
	c := dialDur(t, s.TCPAddr().String(), client.WithBatchSize(512))
	subj, pad := createOv(t, c, "subj"), createOv(t, c, "pad")
	sendAll(t, subj, ovEdges(5, 2048))
	if _, err := pad.Query(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := subj.Query(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", s.HTTPAddr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	for _, tc := range []struct {
		key  string
		want int64
	}{
		{"batches_processed", m.IngestHist.Count()},
		{"batch_nanos", m.IngestHist.Sum()},
		{"avg_batch_nanos", m.IngestHist.Mean()},
		{"query_nanos", m.QueryHist.Sum()},
		{"rehydrations_total", m.RehydrateHist.Count()},
		{"rehydration_nanos", m.RehydrateHist.Sum()},
	} {
		if tc.want <= 0 {
			t.Errorf("histogram behind %s holds %d; the run should have fed it", tc.key, tc.want)
		}
		if got, ok := out.Counters[tc.key]; !ok || got != tc.want {
			t.Errorf("/metrics %s = %d (present %v), want the histogram's %d", tc.key, got, ok, tc.want)
		}
	}
}
