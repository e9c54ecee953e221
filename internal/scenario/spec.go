// Package scenario is the declarative load/chaos harness behind
// cmd/kcoverload: a JSON spec describes a seeded workload, a client fleet
// shape, a managed kcoverd lifecycle, a time-windowed fault schedule and
// pass/fail gates; Run executes it against an in-process daemon (so the
// fault.Injector filesystem shim and fault.Proxy chaos layer apply),
// scrapes /metrics and /healthz on a cadence, and emits a report with
// per-phase throughput, client-observed latency percentiles,
// recovery-time-to-healthy after each fault window, and gate verdicts.
//
// Everything the workload side does derives from the spec's single seed:
// the same spec reproduces the exact same edge stream, byte for byte,
// which the report proves by recording the stream digest.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"streamcover/internal/workload"
)

// Duration is a time.Duration that unmarshals from a JSON string like
// "250ms" or "3s" — specs are written by humans.
type Duration struct{ time.Duration }

func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf(`durations are strings like "250ms": %w`, err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	d.Duration = v
	return nil
}

func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(d.String())
}

// Spec is one complete scenario.
type Spec struct {
	Name        string       `json:"name"`
	Description string       `json:"description,omitempty"`
	Seed        int64        `json:"seed"`
	Workload    WorkloadSpec `json:"workload"`
	Fleet       FleetSpec    `json:"fleet"`
	Daemon      DaemonSpec   `json:"daemon"`
	Cluster     *ClusterSpec `json:"cluster,omitempty"`
	Phases      []PhaseSpec  `json:"phases"`
	Lifecycle   []LifeEvent  `json:"lifecycle,omitempty"`
	Faults      []FaultSpec  `json:"faults,omitempty"`
	Gates       GateSpec     `json:"gates"`
}

// ClusterSpec turns the managed daemon into an N-node replication fleet:
// every node runs the same DaemonSpec, sessions place onto Replicas of
// them by consistent hash (leader + followers, WAL shipping), and the
// fleet drives ingest through the cluster-aware client. Cluster mode
// requires daemon.durable (replication ships the WAL). With daemon.proxy
// each node gets independent proxy planes: client proxies for ingest and
// HTTP (the existing partition/net_delay/drop_conns kinds) and a peer
// proxy that the other nodes dial for replication, so the peer_partition
// fault severs WAL shipping without touching client traffic.
type ClusterSpec struct {
	Nodes    int `json:"nodes"`
	Replicas int `json:"replicas,omitempty"` // placement width (default min(3, nodes))
	// Heartbeat is the leader shipper's cadence while followers are caught
	// up — it bounds follower staleness resolution (default 50ms).
	Heartbeat Duration `json:"heartbeat,omitempty"`
	// MaxStale is the staleness bound the harness's end-of-run follower
	// read is issued with (default 2s).
	MaxStale Duration `json:"max_stale,omitempty"`
}

// clustered reports whether the spec runs a multi-node fleet.
func (s *Spec) clustered() bool { return s.Cluster != nil }

// nodeCount is the number of managed daemons the run starts.
func (s *Spec) nodeCount() int {
	if s.Cluster != nil {
		return s.Cluster.Nodes
	}
	return 1
}

// WorkloadSpec names a generator family (internal/workload.FromFamily) and
// its knobs, plus the arrival order and the estimator's approximation
// target. Zero-valued knobs take the family defaults.
type WorkloadSpec struct {
	Family   string  `json:"family"`
	N        int     `json:"n,omitempty"`
	M        int     `json:"m,omitempty"`
	K        int     `json:"k,omitempty"`
	Frac     float64 `json:"frac,omitempty"`
	AvgSize  int     `json:"avg_size,omitempty"`
	Exponent float64 `json:"exponent,omitempty"`
	MaxSize  int     `json:"max_size,omitempty"`
	Large    int     `json:"large,omitempty"`
	Commons  int     `json:"commons,omitempty"`
	Privates int     `json:"privates,omitempty"`
	AvgDeg   int     `json:"avg_deg,omitempty"`
	PerSet   int     `json:"per_set,omitempty"`
	Rich     float64 `json:"rich,omitempty"`
	Order    string  `json:"order,omitempty"` // set|shuffled|element|roundrobin (default shuffled)
	Alpha    float64 `json:"alpha,omitempty"` // estimator approximation target (default 4)
}

// FleetSpec shapes the client side: how many connections, how many edges
// per wire batch and how deep each connection pipelines. Tenants > 1 fans
// the same workload across that many server-side sessions (named
// <spec.Name>-t<i>): each connection keeps one handle per tenant and
// routes every chunk by a seeded workload.TenantPicker — Zipf-skewed when
// Skew > 0, uniform otherwise — which is the access pattern session
// oversubscription (daemon.mem_budget) is built for: a few hot tenants
// stay resident while the long tail evicts to checkpoints and rehydrates
// on touch.
type FleetSpec struct {
	Connections int     `json:"connections,omitempty"` // default 2
	BatchEdges  int     `json:"batch_edges,omitempty"` // default 2048
	MaxPending  int     `json:"max_pending,omitempty"` // default 32
	Tenants     int     `json:"tenants,omitempty"`     // sessions to spread load over (default 1)
	Skew        float64 `json:"skew,omitempty"`        // tenant-pick Zipf exponent (0 = uniform)
}

// DaemonSpec shapes the managed kcoverd instance. Proxy routes both the
// ingest TCP and the health/metrics HTTP traffic through a fault.Proxy so
// partition/delay/drop windows apply to everything the harness observes.
type DaemonSpec struct {
	QueueDepth      int      `json:"queue_depth,omitempty"`      // default 64
	Durable         bool     `json:"durable,omitempty"`          // WAL + checkpoints in a temp data dir
	WALNoSync       bool     `json:"wal_nosync,omitempty"`       //
	CheckpointEvery Duration `json:"checkpoint_every,omitempty"` // default 2s (durable only)
	RetryMin        Duration `json:"retry_min,omitempty"`        // degraded-recovery backoff floor (default 25ms)
	RetryMax        Duration `json:"retry_max,omitempty"`        // degraded-recovery backoff ceiling (default 500ms)
	Proxy           bool     `json:"proxy,omitempty"`            // required by partition/net_delay/drop_conns faults
	// MemBudget oversubscribes sessions against a byte budget: cold ones
	// LRU-evict to their checkpoints and rehydrate on the next touch.
	// Requires durable (eviction parks a session at its checkpoint).
	MemBudget int64 `json:"mem_budget,omitempty"`
}

// PhaseSpec is one timed segment of the drive: a name, a duration, and a
// target arrival rate in edges/sec summed over the fleet. Rate 0 is
// closed-loop (each connection self-clocks on server backpressure); a
// positive rate is open-loop through a token bucket, which is how a
// flash-crowd overdrives the server.
type PhaseSpec struct {
	Name     string   `json:"name"`
	Duration Duration `json:"duration"`
	Rate     float64  `json:"rate,omitempty"`
}

// LifeEvent schedules a daemon lifecycle action at an offset from run
// start: "kill" (SIGKILL-style abort, no checkpoint), "restart" (start a
// fresh daemon on the same address and data dir — crash recovery),
// "checkpoint" (force a checkpoint of every session), or — cluster mode
// only — "failover" (kill the session's current leader, whichever node
// that is, and promote the most caught-up live replica; the killed node
// stays down for the rest of the run). Node selects which daemon a
// kill/restart/checkpoint targets in cluster mode (default 0); failover
// resolves its own target.
type LifeEvent struct {
	At     Duration `json:"at"`
	Action string   `json:"action"`
	Node   int      `json:"node,omitempty"`
}

// FaultSpec is one scheduled fault window. Windowed kinds apply at At and
// clear at At+Duration:
//
//	disk_full   — fault.Injector ENOSPC byte budget (Budget bytes remain)
//	fail_syncs  — next Count fsyncs fail (Count<=0: every fsync in window)
//	fail_writes — next Count writes fail (Count<=0: every write in window)
//	io_latency  — every write/fsync sleeps Delay first
//	partition   — proxy black-holes new connections and drops live ones
//	net_delay   — proxy delays each forwarded chunk by Delay
//
// Cluster-only (needs cluster + daemon.proxy):
//
//	peer_partition — black-holes the node's peer proxy: replication
//	                 streams served BY this node (followers fetching WAL
//	                 from it while it leads) are severed while client
//	                 ingest and queries keep flowing; target every node
//	                 in overlapping windows to cut the whole plane
//	                 whatever the placement chose
//
// drop_conns is instantaneous (Duration must be 0): sever every proxied
// connection once, a network blip.
//
// Node selects which daemon the fault applies to in cluster mode
// (default 0). Same-kind windows may overlap across different nodes, but
// not on one node.
type FaultSpec struct {
	Kind     string   `json:"kind"`
	At       Duration `json:"at"`
	Duration Duration `json:"duration,omitempty"`
	Node     int      `json:"node,omitempty"`
	Budget   int64    `json:"budget,omitempty"`
	Count    int      `json:"count,omitempty"`
	Delay    Duration `json:"delay,omitempty"`
}

// GateSpec turns measurements into a pass/fail verdict. Zero-valued
// limits are not checked.
type GateSpec struct {
	MinEdgesPerSec        float64 `json:"min_edges_per_sec,omitempty"`
	MaxP99Millis          float64 `json:"max_p99_ms,omitempty"`
	MaxRecoveryMillis     float64 `json:"max_recovery_ms,omitempty"`
	RequireExactlyOnce    bool    `json:"require_exactly_once,omitempty"`
	RequireReferenceMatch bool    `json:"require_reference_match,omitempty"`
	// RequireReplicaConvergence (cluster only) fails the run unless, after
	// the final flush, every live replica's applied watermark reaches the
	// leader's durable head, all estimator digests are byte-equal, and a
	// staleness-bounded follower read agrees with the leader's answer.
	RequireReplicaConvergence bool `json:"require_replica_convergence,omitempty"`
	// MaxThroughputDropPct fails the run when overall acked throughput
	// drops more than this percentage below the same scenario in the
	// baseline report (kcoverload -baseline).
	MaxThroughputDropPct float64 `json:"max_throughput_drop_pct,omitempty"`
}

var validOrders = map[string]bool{"set": true, "shuffled": true, "element": true, "roundrobin": true}

var proxyFaults = map[string]bool{"partition": true, "net_delay": true, "drop_conns": true, "peer_partition": true}
var durableFaults = map[string]bool{"disk_full": true, "fail_syncs": true, "fail_writes": true, "io_latency": true}

// ParseSpec strictly decodes and validates one scenario spec: unknown
// fields are rejected (a typoed knob must not silently no-op), durations
// must be non-negative, fault windows of the same kind must not overlap,
// and every scheduled event must land inside the run.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	// A second document in the same file is a mistake, not an extension.
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing data after spec")
	}
	s.applyDefaults()
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	return &s, nil
}

// marshalSpec serializes a spec back to JSON (tests round-trip with it).
func marshalSpec(s *Spec) ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// ParseSpecFile reads and parses one spec file.
func ParseSpecFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseSpec(data)
}

func (s *Spec) applyDefaults() {
	if s.Workload.Order == "" {
		s.Workload.Order = "shuffled"
	}
	if s.Workload.Alpha == 0 {
		s.Workload.Alpha = 4
	}
	if s.Fleet.Connections == 0 {
		s.Fleet.Connections = 2
	}
	if s.Fleet.BatchEdges == 0 {
		s.Fleet.BatchEdges = 2048
	}
	if s.Fleet.MaxPending == 0 {
		s.Fleet.MaxPending = 32
	}
	if s.Fleet.Tenants == 0 {
		s.Fleet.Tenants = 1
	}
	if s.Daemon.QueueDepth == 0 {
		s.Daemon.QueueDepth = 64
	}
	if s.Daemon.CheckpointEvery.Duration == 0 {
		s.Daemon.CheckpointEvery.Duration = 2 * time.Second
	}
	if s.Daemon.RetryMin.Duration == 0 {
		s.Daemon.RetryMin.Duration = 25 * time.Millisecond
	}
	if s.Daemon.RetryMax.Duration == 0 {
		s.Daemon.RetryMax.Duration = 500 * time.Millisecond
	}
	if c := s.Cluster; c != nil {
		if c.Replicas == 0 {
			if c.Replicas = 3; c.Nodes < 3 {
				c.Replicas = c.Nodes
			}
		}
		if c.Heartbeat.Duration == 0 {
			c.Heartbeat.Duration = 50 * time.Millisecond
		}
		if c.MaxStale.Duration == 0 {
			c.MaxStale.Duration = 2 * time.Second
		}
	}
}

// TotalDuration is the sum of the phase durations — the run's length.
func (s *Spec) TotalDuration() time.Duration {
	var t time.Duration
	for _, p := range s.Phases {
		t += p.Duration.Duration
	}
	return t
}

func (s *Spec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("missing name")
	}
	if !workload.ValidFamily(s.Workload.Family) {
		return fmt.Errorf("unknown workload family %q (have %v)", s.Workload.Family, workload.Families())
	}
	if !validOrders[s.Workload.Order] {
		return fmt.Errorf("unknown arrival order %q (set|shuffled|element|roundrobin)", s.Workload.Order)
	}
	for _, v := range []struct {
		name string
		val  int
	}{
		{"workload.n", s.Workload.N}, {"workload.m", s.Workload.M}, {"workload.k", s.Workload.K},
		{"fleet.connections", s.Fleet.Connections}, {"fleet.batch_edges", s.Fleet.BatchEdges},
		{"fleet.max_pending", s.Fleet.MaxPending}, {"daemon.queue_depth", s.Daemon.QueueDepth},
	} {
		if v.val < 0 {
			return fmt.Errorf("%s is negative", v.name)
		}
	}
	if s.Fleet.Tenants < 0 {
		return fmt.Errorf("fleet.tenants is negative")
	}
	if s.Fleet.Skew < 0 {
		return fmt.Errorf("fleet.skew is negative")
	}
	if s.Fleet.Tenants > 1 {
		if s.clustered() {
			return fmt.Errorf("fleet.tenants > 1 cannot be combined with a cluster block (the convergence protocol tracks one session)")
		}
		if s.Gates.RequireReferenceMatch {
			// The reference replay reconstructs one session's multiset from
			// the per-connection cycles; a tenant fan-out splits the stream
			// across sessions, so the gate's single-estimator comparison no
			// longer applies (exactly-once still does: it sums per-tenant
			// applied counts).
			return fmt.Errorf("gate require_reference_match cannot be combined with fleet.tenants > 1")
		}
	}
	if s.Daemon.MemBudget < 0 {
		return fmt.Errorf("daemon.mem_budget is negative")
	}
	if s.Daemon.MemBudget > 0 && !s.Daemon.Durable {
		return fmt.Errorf("daemon.mem_budget needs daemon.durable (eviction parks sessions at their checkpoints)")
	}
	if c := s.Cluster; c != nil {
		if c.Nodes < 2 || c.Nodes > 9 {
			return fmt.Errorf("cluster.nodes %d out of range (2..9)", c.Nodes)
		}
		if c.Replicas < 2 || c.Replicas > c.Nodes {
			return fmt.Errorf("cluster.replicas %d out of range (2..nodes)", c.Replicas)
		}
		if c.Heartbeat.Duration <= 0 || c.MaxStale.Duration <= 0 {
			return fmt.Errorf("cluster heartbeat and max_stale must be positive")
		}
		if !s.Daemon.Durable {
			return fmt.Errorf("cluster mode needs daemon.durable (replication ships the WAL)")
		}
	}
	if s.Gates.RequireReplicaConvergence && !s.clustered() {
		return fmt.Errorf("gate require_replica_convergence needs a cluster block")
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("no phases")
	}
	for i, p := range s.Phases {
		if p.Name == "" {
			return fmt.Errorf("phase %d: missing name", i)
		}
		if p.Duration.Duration <= 0 {
			return fmt.Errorf("phase %q: duration %v must be positive", p.Name, p.Duration.Duration)
		}
		if p.Rate < 0 {
			return fmt.Errorf("phase %q: negative rate", p.Name)
		}
	}
	total := s.TotalDuration()
	if err := s.validateLifecycle(total); err != nil {
		return err
	}
	if err := s.validateFaults(total); err != nil {
		return err
	}
	for _, g := range []struct {
		name string
		val  float64
	}{
		{"min_edges_per_sec", s.Gates.MinEdgesPerSec}, {"max_p99_ms", s.Gates.MaxP99Millis},
		{"max_recovery_ms", s.Gates.MaxRecoveryMillis}, {"max_throughput_drop_pct", s.Gates.MaxThroughputDropPct},
	} {
		if g.val < 0 {
			return fmt.Errorf("gate %s is negative", g.name)
		}
	}
	return nil
}

func (s *Spec) validateLifecycle(total time.Duration) error {
	evs := append([]LifeEvent(nil), s.Lifecycle...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At.Duration < evs[j].At.Duration })
	// Per-node liveness walk. A failover kills whichever node leads at
	// fire time — unknowable statically — so mixing it with node-targeted
	// kill/restart would make this walk meaningless; forbid the mix.
	alive := make([]bool, s.nodeCount())
	for i := range alive {
		alive[i] = true
	}
	failovers, killRestarts := 0, 0
	for _, e := range evs {
		if e.At.Duration < 0 {
			return fmt.Errorf("lifecycle %s: negative offset %v", e.Action, e.At.Duration)
		}
		if e.At.Duration >= total {
			return fmt.Errorf("lifecycle %s at %v lands after the run ends (%v)", e.Action, e.At.Duration, total)
		}
		if e.Node < 0 || e.Node >= s.nodeCount() {
			return fmt.Errorf("lifecycle %s: node %d out of range (cluster has %d)", e.Action, e.Node, s.nodeCount())
		}
		switch e.Action {
		case "kill":
			if !alive[e.Node] {
				return fmt.Errorf("lifecycle: kill at %v while the daemon is already down", e.At.Duration)
			}
			alive[e.Node] = false
			killRestarts++
		case "restart":
			if alive[e.Node] {
				return fmt.Errorf("lifecycle: restart at %v without a preceding kill", e.At.Duration)
			}
			alive[e.Node] = true
			killRestarts++
		case "checkpoint":
			if !alive[e.Node] {
				return fmt.Errorf("lifecycle: checkpoint at %v while the daemon is down", e.At.Duration)
			}
		case "failover":
			if !s.clustered() {
				return fmt.Errorf("lifecycle: failover needs a cluster block")
			}
			failovers++
		default:
			return fmt.Errorf("lifecycle: unknown action %q (kill|restart|checkpoint|failover)", e.Action)
		}
	}
	for i, a := range alive {
		if !a && !s.clustered() {
			return fmt.Errorf("lifecycle: the daemon is left dead (kill without restart)")
		} else if !a {
			return fmt.Errorf("lifecycle: node %d is left dead (kill without restart)", i)
		}
	}
	if failovers > 0 && killRestarts > 0 {
		return fmt.Errorf("lifecycle: failover cannot be mixed with kill/restart (the killed leader is resolved at run time)")
	}
	if s.Cluster != nil && failovers > s.Cluster.Replicas-1 {
		return fmt.Errorf("lifecycle: %d failovers would exhaust the placement (%d replicas)", failovers, s.Cluster.Replicas)
	}
	if !s.Daemon.Durable && s.Gates.RequireExactlyOnce {
		// A kill without durability silently loses applied edges; the
		// exactly-once gate would then be meaningless.
		for _, e := range s.Lifecycle {
			if e.Action == "kill" {
				return fmt.Errorf("lifecycle kill with require_exactly_once needs daemon.durable")
			}
		}
	}
	return nil
}

func (s *Spec) validateFaults(total time.Duration) error {
	byKind := map[string][]FaultSpec{}
	for i, f := range s.Faults {
		if !proxyFaults[f.Kind] && !durableFaults[f.Kind] {
			return fmt.Errorf("fault %d: unknown kind %q", i, f.Kind)
		}
		if f.At.Duration < 0 {
			return fmt.Errorf("fault %s: negative offset %v", f.Kind, f.At.Duration)
		}
		if f.Duration.Duration < 0 {
			return fmt.Errorf("fault %s: negative duration %v", f.Kind, f.Duration.Duration)
		}
		if f.Kind == "drop_conns" {
			if f.Duration.Duration != 0 {
				return fmt.Errorf("fault drop_conns is instantaneous; duration must be omitted")
			}
		} else if f.Duration.Duration == 0 {
			return fmt.Errorf("fault %s: a window needs a positive duration", f.Kind)
		}
		if end := f.At.Duration + f.Duration.Duration; end > total {
			return fmt.Errorf("fault %s window [%v,%v] extends past the run end (%v)", f.Kind, f.At.Duration, end, total)
		}
		if proxyFaults[f.Kind] && !s.Daemon.Proxy {
			return fmt.Errorf("fault %s needs daemon.proxy", f.Kind)
		}
		if durableFaults[f.Kind] && !s.Daemon.Durable {
			return fmt.Errorf("fault %s needs daemon.durable", f.Kind)
		}
		if f.Kind == "peer_partition" && !s.clustered() {
			return fmt.Errorf("fault peer_partition needs a cluster block")
		}
		if f.Node < 0 || f.Node >= s.nodeCount() {
			return fmt.Errorf("fault %s: node %d out of range (cluster has %d)", f.Kind, f.Node, s.nodeCount())
		}
		if f.Kind == "disk_full" && f.Budget <= 0 {
			return fmt.Errorf("fault disk_full: budget (bytes) must be positive")
		}
		if (f.Kind == "io_latency" || f.Kind == "net_delay") && f.Delay.Duration <= 0 {
			return fmt.Errorf("fault %s: delay must be positive", f.Kind)
		}
		byKind[fmt.Sprintf("%s@%d", f.Kind, f.Node)] = append(byKind[fmt.Sprintf("%s@%d", f.Kind, f.Node)], f)
	}
	for kind, fs := range byKind {
		sort.Slice(fs, func(i, j int) bool { return fs[i].At.Duration < fs[j].At.Duration })
		for i := 1; i < len(fs); i++ {
			prevEnd := fs[i-1].At.Duration + fs[i-1].Duration.Duration
			if fs[i].At.Duration < prevEnd {
				return fmt.Errorf("fault %s windows overlap: [%v,%v] and [%v,%v]",
					kind, fs[i-1].At.Duration, prevEnd,
					fs[i].At.Duration, fs[i].At.Duration+fs[i].Duration.Duration)
			}
		}
	}
	return nil
}
