package server

import (
	"sync/atomic"
	"time"

	"streamcover/internal/phist"
)

// Metrics are plain expvar-style counters updated with atomics on the hot
// path and snapshotted by the /metrics HTTP handler, plus two
// power-of-two-bucketed latency histograms (per-batch processing
// and query clone+finalize) whose derived p50/p95/p99 let operators — and
// the kcoverload collector — read percentile latency server-side instead
// of inferring it from averages. The snapshot derives ingest edges/sec
// from the edge counter and the server's uptime.
type Metrics struct {
	EdgesIngested  atomic.Int64
	Batches        atomic.Int64
	Queries        atomic.Int64
	Conns          atomic.Int64 // currently open TCP connections
	ConnsTotal     atomic.Int64
	Frames         atomic.Int64 // frames handled (all types)
	Errors         atomic.Int64 // error responses sent
	MergeNanos     atomic.Int64 // cumulative query clone+finalize time
	LastMergeNanos atomic.Int64

	// Batched-ingest latency, measured around each session's
	// ProcessColumns call on its apply goroutine: one sample per wire batch.
	BatchesProcessed atomic.Int64
	BatchNanos       atomic.Int64 // cumulative batch-processing time
	LastBatchNanos   atomic.Int64

	// Durability counters. DupBatches counts sequenced batches dropped by
	// (source, seq) dedup — a reconnecting client resending unacked work.
	// The replay counters cover WAL tail replay during crash recovery.
	DupBatches      atomic.Int64
	Checkpoints     atomic.Int64
	CheckpointNanos atomic.Int64
	ReplayBatches   atomic.Int64
	ReplayEdges     atomic.Int64
	ReplayNanos     atomic.Int64

	// Failure handling. WALAppendFailures and CheckpointFailures count
	// durability faults; DegradedSessions and DiskFullSessions are live
	// gauges (any DiskFullSessions > 0 puts the whole server in read-only
	// mode); DurabilityRecoveries counts degraded sessions brought back to
	// healthy in place. BusyRejects counts transient (retryable) ingest
	// rejections sent while degraded or read-only, and DeadlineReaps
	// counts connections closed by the server's read/write deadlines.
	WALAppendFailures    atomic.Int64
	CheckpointFailures   atomic.Int64
	DurabilityRecoveries atomic.Int64
	DegradedSessions     atomic.Int64
	DiskFullSessions     atomic.Int64
	BusyRejects          atomic.Int64
	DeadlineReaps        atomic.Int64

	// Cluster replication. RepStreams is a live gauge of open shipping
	// streams (leader side); the applied counters cover the follower side;
	// StaleRejects counts follower reads bounced for exceeding the
	// client's staleness bound.
	RepStreams        atomic.Int64
	RepEntriesApplied atomic.Int64
	RepEdgesApplied   atomic.Int64
	RepBootstraps     atomic.Int64
	RepPromotions     atomic.Int64
	StaleRejects      atomic.Int64

	// Oversubscription (see oversub.go). EvictionsTotal counts sessions
	// parked at their checkpoints; RehydrationsTotal counts them brought
	// back (RehydrationNanos is the cumulative wall time). RehydrateRejects
	// counts wakers bounced by the admission gate, QuotaRejects ingests
	// bounced by the per-session quota, OrphansSwept checkpoint-less
	// session directories reclaimed at startup.
	EvictionsTotal    atomic.Int64
	RehydrationsTotal atomic.Int64
	RehydrationNanos  atomic.Int64
	RehydrateRejects  atomic.Int64
	QuotaRejects      atomic.Int64
	OrphansSwept      atomic.Int64

	// Latency histograms. IngestHist records each batch's ProcessColumns
	// time; QueryHist records each query's clone+finalize time; RehydrateHist each checkpoint-restore + tail-replay. All in
	// nanoseconds.
	IngestHist    phist.Hist
	QueryHist     phist.Hist
	RehydrateHist phist.Hist

	start time.Time // set by Server.New; anchors the edges/sec rate
}

// snapshot flattens the counters for JSON encoding, adding the derived
// ingest rate and mean per-batch latency.
func (m *Metrics) snapshot() map[string]int64 {
	s := map[string]int64{
		"edges_ingested":    m.EdgesIngested.Load(),
		"batches":           m.Batches.Load(),
		"queries":           m.Queries.Load(),
		"conns_open":        m.Conns.Load(),
		"conns_total":       m.ConnsTotal.Load(),
		"frames":            m.Frames.Load(),
		"errors":            m.Errors.Load(),
		"merge_nanos":       m.MergeNanos.Load(),
		"last_merge_nanos":  m.LastMergeNanos.Load(),
		"batches_processed": m.BatchesProcessed.Load(),
		"batch_nanos":       m.BatchNanos.Load(),
		"last_batch_nanos":  m.LastBatchNanos.Load(),
		"dup_batches":       m.DupBatches.Load(),
		"checkpoints":       m.Checkpoints.Load(),
		"checkpoint_nanos":  m.CheckpointNanos.Load(),
		"replay_batches":    m.ReplayBatches.Load(),
		"replay_edges":      m.ReplayEdges.Load(),
		"replay_nanos":      m.ReplayNanos.Load(),

		"wal_append_failures":   m.WALAppendFailures.Load(),
		"checkpoint_failures":   m.CheckpointFailures.Load(),
		"durability_recoveries": m.DurabilityRecoveries.Load(),
		"degraded_sessions":     m.DegradedSessions.Load(),
		"disk_full_sessions":    m.DiskFullSessions.Load(),
		"busy_rejects":          m.BusyRejects.Load(),
		"deadline_reaps":        m.DeadlineReaps.Load(),

		"rep_streams":         m.RepStreams.Load(),
		"rep_entries_applied": m.RepEntriesApplied.Load(),
		"rep_edges_applied":   m.RepEdgesApplied.Load(),
		"rep_bootstraps":      m.RepBootstraps.Load(),
		"rep_promotions":      m.RepPromotions.Load(),
		"stale_rejects":       m.StaleRejects.Load(),

		"evictions_total":    m.EvictionsTotal.Load(),
		"rehydrations_total": m.RehydrationsTotal.Load(),
		"rehydration_nanos":  m.RehydrationNanos.Load(),
		"rehydrate_rejects":  m.RehydrateRejects.Load(),
		"quota_rejects":      m.QuotaRejects.Load(),
		"orphans_swept":      m.OrphansSwept.Load(),
	}
	if n := m.ReplayNanos.Load(); n > 0 {
		s["replay_edges_per_sec"] = int64(float64(m.ReplayEdges.Load()) / (float64(n) / 1e9))
	}
	if n := m.BatchesProcessed.Load(); n > 0 {
		s["avg_batch_nanos"] = m.BatchNanos.Load() / n
	} else {
		s["avg_batch_nanos"] = 0
	}
	if m.IngestHist.Count() > 0 {
		s["ingest_batch_p50_nanos"] = m.IngestHist.Quantile(0.50)
		s["ingest_batch_p95_nanos"] = m.IngestHist.Quantile(0.95)
		s["ingest_batch_p99_nanos"] = m.IngestHist.Quantile(0.99)
	}
	if m.QueryHist.Count() > 0 {
		s["query_merge_p50_nanos"] = m.QueryHist.Quantile(0.50)
		s["query_merge_p95_nanos"] = m.QueryHist.Quantile(0.95)
		s["query_merge_p99_nanos"] = m.QueryHist.Quantile(0.99)
	}
	if m.RehydrateHist.Count() > 0 {
		s["rehydration_p50_nanos"] = m.RehydrateHist.Quantile(0.50)
		s["rehydration_p95_nanos"] = m.RehydrateHist.Quantile(0.95)
		s["rehydration_p99_nanos"] = m.RehydrateHist.Quantile(0.99)
	}
	if !m.start.IsZero() {
		up := time.Since(m.start)
		s["uptime_seconds"] = int64(up.Seconds())
		if up > 0 {
			s["ingest_edges_per_sec"] = int64(float64(m.EdgesIngested.Load()) / up.Seconds())
		}
	}
	return s
}
