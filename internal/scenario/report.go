package scenario

import (
	"encoding/json"
	"fmt"
	"os"
)

// Report is the top-level kcoverload output (BENCH_scenarios.json): one
// entry per scenario run, in run order.
type Report struct {
	GeneratedAt string            `json:"generated_at,omitempty"`
	Scenarios   []*ScenarioReport `json:"scenarios"`
}

// ScenarioReport captures one scenario run end to end.
type ScenarioReport struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Seed        int64  `json:"seed"`
	// StreamDigest is the order-sensitive FNV-1a digest of the generated
	// edge stream — two same-seed runs must report the same value.
	StreamDigest   string `json:"stream_digest"`
	EdgesGenerated int    `json:"edges_generated"`
	// Tenants is set when the fleet fanned the stream across multiple
	// sessions; EdgesApplied is then the sum over all of them.
	Tenants        int               `json:"tenants,omitempty"`
	EdgesSent      int64             `json:"edges_sent"`
	EdgesApplied   int64             `json:"edges_applied"`
	Coverage       float64           `json:"coverage"`
	ElapsedSeconds float64           `json:"elapsed_seconds"`
	Phases         []PhaseReport     `json:"phases"`
	Faults         []FaultReport     `json:"faults,omitempty"`
	Lifecycle      []LifecycleReport `json:"lifecycle,omitempty"`
	// Leader and Replicas are cluster-mode only: the session's final
	// leader and the end-of-run convergence snapshot of every live node.
	Leader         string           `json:"leader,omitempty"`
	Replicas       []ReplicaReport  `json:"replicas,omitempty"`
	ServerCounters map[string]int64 `json:"server_counters,omitempty"`
	Gates          []GateResult     `json:"gates"`
	Pass           bool             `json:"pass"`
	Error          string           `json:"error,omitempty"`
}

// PhaseReport is the per-phase view from both vantage points: edges acked
// during the phase and first-write-to-ack latency percentiles on the
// client side (which include busy-park and reconnect time — the latency a
// caller feels), and the server-side ingest-batch percentiles from the
// /metrics histogram diff across the phase boundary. P99GapMillis is the
// client p99 minus the server p99 — everything the server never sees:
// network, wire framing, client queuing and park/reconnect windows.
type PhaseReport struct {
	Name            string  `json:"name"`
	Seconds         float64 `json:"seconds"`
	TargetRate      float64 `json:"target_rate,omitempty"`
	EdgesAcked      int64   `json:"edges_acked"`
	Batches         int64   `json:"batches_acked"`
	EdgesPerSec     float64 `json:"edges_per_sec"`
	P50Millis       float64 `json:"p50_ms"`
	P95Millis       float64 `json:"p95_ms"`
	P99Millis       float64 `json:"p99_ms"`
	MeanMillis      float64 `json:"mean_ms"`
	ServerP50Millis float64 `json:"server_p50_ms,omitempty"`
	ServerP95Millis float64 `json:"server_p95_ms,omitempty"`
	ServerP99Millis float64 `json:"server_p99_ms,omitempty"`
	P99GapMillis    float64 `json:"p99_gap_ms,omitempty"`
}

// FaultReport records when a fault window actually ran and how long the
// daemon took to report "ok" on /healthz after the window cleared.
// RecoveryMillis is -1 when the daemon never recovered before shutdown.
type FaultReport struct {
	Kind           string  `json:"kind"`
	Node           int     `json:"node,omitempty"`
	StartSeconds   float64 `json:"start_seconds"`
	EndSeconds     float64 `json:"end_seconds"`
	RecoveryMillis float64 `json:"recovery_ms"`
}

// LifecycleReport records a lifecycle action; RecoveryMillis is set for
// restarts (time from restart to the first healthy scrape, -1 if never).
// Leader is set for failovers: the identity of the promoted node.
type LifecycleReport struct {
	Action         string  `json:"action"`
	Node           int     `json:"node,omitempty"`
	AtSeconds      float64 `json:"at_seconds"`
	RecoveryMillis float64 `json:"recovery_ms,omitempty"`
	Leader         string  `json:"leader,omitempty"`
}

// ReplicaReport is one live node's row in the cluster convergence
// snapshot: its role, applied watermark, and the SHA-256 digest of its
// estimator state — byte-equal digests across the fleet are
// the replication subsystem's correctness claim.
type ReplicaReport struct {
	Node             string  `json:"node"`
	Role             string  `json:"role"`
	Applied          uint64  `json:"applied"`
	Digest           string  `json:"digest"`
	StalenessSeconds float64 `json:"staleness_seconds,omitempty"`
}

// GateResult is one evaluated gate.
type GateResult struct {
	Name   string  `json:"name"`
	Limit  float64 `json:"limit,omitempty"`
	Actual float64 `json:"actual"`
	Pass   bool    `json:"pass"`
	Detail string  `json:"detail,omitempty"`
}

// Throughput is the scenario's overall acked edges/sec across all phases.
func (r *ScenarioReport) Throughput() float64 {
	var edges int64
	var secs float64
	for _, p := range r.Phases {
		edges += p.EdgesAcked
		secs += p.Seconds
	}
	if secs == 0 {
		return 0
	}
	return float64(edges) / secs
}

// WriteReport writes rep as indented JSON to path.
func WriteReport(path string, rep *Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadReport reads a report written by WriteReport (the -baseline input).
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	return &rep, nil
}

// Scenario returns the named scenario's report, or nil.
func (r *Report) Scenario(name string) *ScenarioReport {
	if r == nil {
		return nil
	}
	for _, s := range r.Scenarios {
		if s.Name == name {
			return s
		}
	}
	return nil
}
