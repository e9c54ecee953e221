// Command kcoverdensity measures session density under oversubscription:
// how many live tenant sessions one node can address per GB of estimator
// memory, with and without a memory budget (server.Config.MemBudget).
//
// The benchmark runs the same seeded Zipf tenant workload twice against an
// in-process durable kcoverd:
//
//   - baseline: MemBudget 0 — every session stays hydrated, so the node's
//     footprint is the sum of every tenant's serialized estimator state,
//     measured by a full checkpoint sweep (real encode sizes, not
//     estimates).
//   - budgeted: MemBudget = baseline/divisor — cold tenants LRU-evict to
//     their checkpoints and rehydrate on touch, so the same tenant count
//     is addressable inside a fraction of the memory.
//
// Each run drives two passes: pass A spreads the stream across every
// tenant (and a checkpoint sweep charges real sizes, which in the
// budgeted run immediately evicts the long tail), pass B replays the same
// Zipf access pattern against the now-oversubscribed node, so every cold
// touch pays a real rehydration whose latency lands in the server's
// rehydration histogram. The run is gated on exactly-once: the summed
// per-tenant applied count must equal everything the client sent.
//
// Output (BENCH_density.json): per-run footprints and wall times, the
// eviction/rehydration counters, rehydration p50/p95/p99, and the
// headline sessions-per-GB ratio between the two runs.
//
// Usage:
//
//	kcoverdensity [-tenants 48] [-skew 1.1] [-batches 400] [-divisor 6]
//	              [-short] [-out BENCH_density.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"time"

	streamcover "streamcover"
	"streamcover/internal/client"
	"streamcover/internal/server"
	"streamcover/internal/stream"
	"streamcover/internal/workload"
)

type runStats struct {
	MemBudget        int64   `json:"mem_budget"`
	ResidentBytes    int64   `json:"resident_bytes"`
	ResidentSessions int64   `json:"resident_sessions"`
	EvictedSessions  int64   `json:"evicted_sessions"`
	Evictions        int64   `json:"evictions_total"`
	Rehydrations     int64   `json:"rehydrations_total"`
	RehydrateP50Ms   float64 `json:"rehydration_p50_ms,omitempty"`
	RehydrateP95Ms   float64 `json:"rehydration_p95_ms,omitempty"`
	RehydrateP99Ms   float64 `json:"rehydration_p99_ms,omitempty"`
	EdgesSent        int64   `json:"edges_sent"`
	EdgesApplied     int64   `json:"edges_applied"`
	SpreadSeconds    float64 `json:"spread_seconds"`
	ChurnSeconds     float64 `json:"churn_seconds"`
	SessionsPerGB    float64 `json:"sessions_per_gb"`
}

type report struct {
	GeneratedAt string         `json:"generated_at"`
	Workload    map[string]any `json:"workload"`
	Tenants     int            `json:"tenants"`
	Skew        float64        `json:"skew"`
	Seed        int64          `json:"seed"`
	Batches     int            `json:"batches"`
	BatchEdges  int            `json:"batch_edges"`
	Baseline    runStats       `json:"baseline"`
	Budgeted    runStats       `json:"budgeted"`
	// DensityRatio is the headline number: sessions addressable per GB
	// under the budget vs always-hydrated — the oversubscription win.
	DensityRatio float64 `json:"density_ratio"`
}

func main() {
	var (
		tenants    = flag.Int("tenants", 48, "tenant sessions to spread the stream over")
		skew       = flag.Float64("skew", 1.1, "tenant-pick Zipf exponent (0 = uniform)")
		seed       = flag.Int64("seed", 42, "workload + tenant-pick seed")
		batches    = flag.Int("batches", 400, "batches per pass (two passes per run)")
		batchEdges = flag.Int("batch-edges", 512, "edges per batch")
		divisor    = flag.Int64("divisor", 6, "budgeted run's MemBudget = baseline footprint / divisor")
		short      = flag.Bool("short", false, "CI smoke sizing (fewer tenants and batches)")
		out        = flag.String("out", "BENCH_density.json", "report path")
	)
	flag.Parse()
	if *short {
		*tenants, *batches = 16, 120
	}
	if *divisor < 2 {
		fmt.Fprintln(os.Stderr, "kcoverdensity: -divisor must be >= 2")
		os.Exit(2)
	}

	// One seeded stream, reused verbatim by both runs and both passes.
	rng := rand.New(rand.NewSource(*seed))
	inst, err := workload.FromFamily("uniform", workload.FamilyParams{N: 500, M: 60, K: 5}, rng)
	if err != nil {
		fatal(err)
	}
	sl := stream.Linearize(inst.System, stream.Shuffled, rng)
	sedges := sl.Edges()
	edges := make([]streamcover.Edge, len(sedges))
	for i, e := range sedges {
		edges[i] = streamcover.Edge(e)
	}
	m, n, k := len(inst.System.Sets), inst.System.N, inst.K

	rep := report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Workload:    map[string]any{"family": "uniform", "n": n, "m": m, "k": k, "alpha": 4.0},
		Tenants:     *tenants, Skew: *skew, Seed: *seed,
		Batches: *batches, BatchEdges: *batchEdges,
	}

	cfg := benchConfig{
		tenants: *tenants, skew: *skew, seed: *seed,
		batches: *batches, batchEdges: *batchEdges,
		edges: edges, m: m, n: n, k: k,
	}
	fmt.Fprintf(os.Stderr, "kcoverdensity: baseline (unbudgeted) run: %d tenants, %d batches/pass\n", *tenants, *batches)
	base, err := cfg.run(0)
	if err != nil {
		fatal(fmt.Errorf("baseline run: %w", err))
	}
	if base.ResidentBytes == 0 {
		fatal(fmt.Errorf("baseline footprint measured zero"))
	}
	budget := base.ResidentBytes / *divisor
	fmt.Fprintf(os.Stderr, "kcoverdensity: baseline footprint %d bytes; budgeted run at %d bytes\n", base.ResidentBytes, budget)
	bud, err := cfg.run(budget)
	if err != nil {
		fatal(fmt.Errorf("budgeted run: %w", err))
	}
	if bud.Rehydrations == 0 || bud.Evictions == 0 {
		fatal(fmt.Errorf("budget never forced churn: evictions=%d rehydrations=%d", bud.Evictions, bud.Rehydrations))
	}

	// Sessions per GB: the baseline needs its full measured footprint to
	// keep all tenants addressable; the budgeted run keeps the same
	// tenants addressable (proven: every tenant answered its final query,
	// exactly-once intact) inside the budget.
	const gb = float64(1 << 30)
	base.SessionsPerGB = float64(cfg.tenants) * gb / float64(base.ResidentBytes)
	bud.SessionsPerGB = float64(cfg.tenants) * gb / float64(budget)
	rep.Baseline, rep.Budgeted = base, bud
	rep.DensityRatio = bud.SessionsPerGB / base.SessionsPerGB

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr,
		"kcoverdensity: %.0f sessions/GB budgeted vs %.0f baseline (ratio %.1fx); rehydration p50=%.1fms p99=%.1fms; report %s\n",
		bud.SessionsPerGB, base.SessionsPerGB, rep.DensityRatio, bud.RehydrateP50Ms, bud.RehydrateP99Ms, *out)
}

type benchConfig struct {
	tenants, batches, batchEdges int
	skew                         float64
	seed                         int64
	edges                        []streamcover.Edge
	m, n, k                      int
}

// run executes one full benchmark pass pair against a fresh in-process
// durable server with the given memory budget (0 = always hydrated).
func (c benchConfig) run(budget int64) (runStats, error) {
	var st runStats
	st.MemBudget = budget
	dir, err := os.MkdirTemp("", "kcoverdensity-*")
	if err != nil {
		return st, err
	}
	defer os.RemoveAll(dir)

	srv := server.New(server.Config{
		DataDir:         dir,
		CheckpointEvery: -1, // charges come from explicit sweeps
		WALNoSync:       true,
		MemBudget:       budget,
	})
	if err := srv.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		return st, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	cl, err := client.Dial(srv.TCPAddr().String(),
		client.WithBatchSize(c.batchEdges),
		client.WithMaxPending(16),
		client.WithBackoff(10*time.Millisecond, 250*time.Millisecond),
		client.WithFlushInterval(2*time.Millisecond))
	if err != nil {
		return st, err
	}
	defer cl.Close()

	sess := make([]*client.Session, c.tenants)
	for t := range sess {
		if sess[t], err = cl.Create(fmt.Sprintf("t%d", t), c.m, c.n, c.k, 4, c.seed); err != nil {
			return st, fmt.Errorf("create tenant %d: %w", t, err)
		}
	}

	// One pass = batches chunks of the cycled stream, each routed to the
	// tenant a seeded Zipf picker chooses. The picker is re-seeded per
	// pass so both passes (and both runs) replay the same access pattern.
	pass := func() (int64, error) {
		picker := workload.NewTenantPicker(c.tenants, c.skew, c.seed)
		var sent int64
		pos := 0
		for b := 0; b < c.batches; b++ {
			end := pos + c.batchEdges
			if end > len(c.edges) {
				end = len(c.edges)
			}
			chunk := c.edges[pos:end]
			if err := sess[picker.Pick()].Send(chunk); err != nil {
				return sent, err
			}
			sent += int64(len(chunk))
			if pos = end; pos >= len(c.edges) {
				pos = 0
			}
		}
		for t, s := range sess {
			if err := s.Flush(); err != nil {
				return sent, fmt.Errorf("flush tenant %d: %w", t, err)
			}
		}
		return sent, nil
	}

	// Pass A: spread. Every tenant accumulates state; the sweep then
	// charges each its resident size — and, under a budget, immediately
	// evicts the cold tail down to it.
	start := time.Now()
	sentA, err := pass()
	if err != nil {
		return st, err
	}
	if err := srv.CheckpointAll(); err != nil {
		return st, err
	}
	st.SpreadSeconds = time.Since(start).Seconds()

	// Pass B: churn. The same access pattern against the oversubscribed
	// node: hot tenants ride resident estimators, cold touches rehydrate.
	start = time.Now()
	sentB, err := pass()
	if err != nil {
		return st, err
	}
	st.ChurnSeconds = time.Since(start).Seconds()
	st.EdgesSent = sentA + sentB

	// Exactly-once across the whole run: the summed per-tenant applied
	// count must equal everything handed to Send.
	for t, s := range sess {
		res, err := s.Query()
		if err != nil {
			return st, fmt.Errorf("query tenant %d: %w", t, err)
		}
		st.EdgesApplied += int64(res.Edges)
	}
	if st.EdgesApplied != st.EdgesSent {
		return st, fmt.Errorf("exactly-once violated: sent %d, applied %d", st.EdgesSent, st.EdgesApplied)
	}

	// Final sweep so the resident footprint reflects end-of-run truth,
	// then scrape the counters.
	if err := srv.CheckpointAll(); err != nil {
		return st, err
	}
	counters, err := scrapeCounters(srv.HTTPAddr().String())
	if err != nil {
		return st, err
	}
	st.ResidentBytes = counters["resident_bytes"]
	st.ResidentSessions = counters["resident_sessions"]
	st.EvictedSessions = counters["evicted_sessions"]
	st.Evictions = counters["evictions_total"]
	st.Rehydrations = counters["rehydrations_total"]
	st.RehydrateP50Ms = float64(counters["rehydration_p50_nanos"]) / 1e6
	st.RehydrateP95Ms = float64(counters["rehydration_p95_nanos"]) / 1e6
	st.RehydrateP99Ms = float64(counters["rehydration_p99_nanos"]) / 1e6
	if budget > 0 && st.ResidentBytes > budget {
		return st, fmt.Errorf("resident bytes %d ended above budget %d", st.ResidentBytes, budget)
	}
	return st, nil
}

func scrapeCounters(addr string) (map[string]int64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	return body.Counters, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kcoverdensity:", err)
	os.Exit(1)
}
