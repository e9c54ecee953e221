package scenario

import (
	"fmt"
	"testing"
	"time"
)

// TestBuildWorkloadDeterministic is the harness-level determinism proof:
// the full spec→stream derivation (generator + arrival-order shuffle)
// must be a pure function of the seed, which is what makes a reported
// stream digest reproducible and two same-seed runs comparable.
func TestBuildWorkloadDeterministic(t *testing.T) {
	for _, family := range []string{"uniform", "zipf", "prefattach"} {
		for _, order := range []string{"set", "shuffled", "element", "roundrobin"} {
			spec, err := ParseSpec([]byte(fmt.Sprintf(`{
				"name": "det", "seed": 42,
				"workload": {"family": %q, "n": 500, "m": 60, "k": 5, "order": %q},
				"phases": [{"name": "p", "duration": "1s"}]
			}`, family, order)))
			if err != nil {
				t.Fatal(err)
			}
			e1, d1, m1, n1, k1, err := buildWorkload(spec)
			if err != nil {
				t.Fatal(err)
			}
			e2, d2, m2, n2, k2, err := buildWorkload(spec)
			if err != nil {
				t.Fatal(err)
			}
			if d1 != d2 || len(e1) != len(e2) || m1 != m2 || n1 != n2 || k1 != k2 {
				t.Fatalf("%s/%s: two builds differ: digest %016x vs %016x", family, order, d1, d2)
			}
			spec.Seed = 43
			_, d3, _, _, _, err := buildWorkload(spec)
			if err != nil {
				t.Fatal(err)
			}
			if d3 == d1 {
				t.Fatalf("%s/%s: different seeds produced the same digest", family, order)
			}
		}
	}
}

// TestRunSteadyMini drives a short two-phase closed/paced run end to end:
// all edges acked, percentiles populated, gates evaluated, exactly-once
// and reference-match both holding.
func TestRunSteadyMini(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end scenario run")
	}
	spec, err := ParseSpec([]byte(`{
		"name": "steady-mini", "seed": 7,
		"workload": {"family": "uniform", "n": 2000, "m": 200, "k": 10},
		"fleet": {"connections": 2, "batch_edges": 256},
		"phases": [
			{"name": "warm", "duration": "500ms", "rate": 4000},
			{"name": "sustain", "duration": "1s"}
		],
		"gates": {"min_edges_per_sec": 100, "require_exactly_once": true, "require_reference_match": true}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(spec, Options{PollInterval: 50e6})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("steady mini failed: %+v error=%s", rep.Gates, rep.Error)
	}
	if rep.EdgesSent == 0 || rep.EdgesApplied != rep.EdgesSent {
		t.Fatalf("sent=%d applied=%d", rep.EdgesSent, rep.EdgesApplied)
	}
	if len(rep.Phases) != 2 {
		t.Fatalf("phases: %+v", rep.Phases)
	}
	for _, p := range rep.Phases {
		if p.EdgesAcked == 0 || p.P99Millis < p.P50Millis {
			t.Fatalf("phase %q accounting broken: %+v", p.Name, p)
		}
	}
	// The warm phase is paced at 4000 edges/s; allow wide CI tolerance but
	// catch a pacer that is off by an order of magnitude.
	warm := rep.Phases[0]
	if warm.EdgesPerSec > 12000 {
		t.Fatalf("paced phase ran at %.0f edges/s against a 4000 target", warm.EdgesPerSec)
	}
}

// TestFleetPacedFromStart pins that the drivers are paced at phase 0's
// rate from the moment they start, not only from the run loop's first
// setPhase: at 1 edge/s in total, each connection's first batch leaves its
// pacer over a minute in debt, so a driver may send one batch at most.
func TestFleetPacedFromStart(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
		"name": "paced-start", "seed": 3,
		"workload": {"family": "uniform", "n": 2000, "m": 200, "k": 10},
		"fleet": {"connections": 2, "batch_edges": 64},
		"phases": [{"name": "trickle", "duration": "1s", "rate": 1}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	edges, _, m, n, k, err := buildWorkload(spec)
	if err != nil {
		t.Fatal(err)
	}
	d := newDaemon(spec.Daemon, "")
	if err := d.start(); err != nil {
		t.Fatal(err)
	}
	defer d.shutdown(10 * time.Second)
	fl, err := newFleet(spec, d.clientAddr(), nil, edges, m, n, k)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.closeAll()
	fl.start()
	time.Sleep(300 * time.Millisecond)
	if err := fl.halt(); err != nil {
		t.Fatal(err)
	}
	if sent, limit := fl.totalSent(), int64(2*64); sent > limit {
		t.Fatalf("drivers sent %d edges before the first phase switch, want at most %d", sent, limit)
	}
}

// TestRunDiskFullMini schedules an ENOSPC window against a durable daemon
// mid-run and asserts the run survives it: every edge eventually acked
// exactly once, and a recovery time was measured from the health
// timeline.
func TestRunDiskFullMini(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end scenario run")
	}
	spec, err := ParseSpec([]byte(`{
		"name": "diskfull-mini", "seed": 11,
		"workload": {"family": "uniform", "n": 2000, "m": 200, "k": 10},
		"fleet": {"connections": 2, "batch_edges": 256},
		"daemon": {"durable": true, "wal_nosync": true, "retry_min": "10ms", "retry_max": "100ms"},
		"phases": [{"name": "drive", "duration": "2500ms"}],
		"faults": [{"kind": "disk_full", "at": "600ms", "duration": "700ms", "budget": 4096}],
		"gates": {"require_exactly_once": true, "require_reference_match": true, "max_recovery_ms": 15000}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(spec, Options{PollInterval: 50e6})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("disk-full mini failed: %+v error=%s", rep.Gates, rep.Error)
	}
	if len(rep.Faults) != 1 {
		t.Fatalf("faults: %+v", rep.Faults)
	}
	f := rep.Faults[0]
	if f.Kind != "disk_full" || f.RecoveryMillis < 0 {
		t.Fatalf("no measured recovery: %+v", f)
	}
	if f.EndSeconds <= f.StartSeconds {
		t.Fatalf("window not recorded: %+v", f)
	}
}

// TestRunKillRestartMini kills a durable daemon mid-drive and restarts it
// on the same address: the fleet must replay through the outage and the
// final state must still match the single-estimator reference bit for
// bit.
func TestRunKillRestartMini(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end scenario run")
	}
	spec, err := ParseSpec([]byte(`{
		"name": "killrestart-mini", "seed": 13,
		"workload": {"family": "zipf", "n": 2000, "m": 200, "k": 10},
		"fleet": {"connections": 2, "batch_edges": 256},
		"daemon": {"durable": true, "wal_nosync": true, "checkpoint_every": "300ms"},
		"phases": [{"name": "drive", "duration": "2500ms"}],
		"lifecycle": [{"at": "800ms", "action": "kill"}, {"at": "1300ms", "action": "restart"}],
		"gates": {"require_exactly_once": true, "require_reference_match": true}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(spec, Options{PollInterval: 50e6})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("kill/restart mini failed: %+v error=%s", rep.Gates, rep.Error)
	}
	if len(rep.Lifecycle) != 2 {
		t.Fatalf("lifecycle: %+v", rep.Lifecycle)
	}
	restart := rep.Lifecycle[1]
	if restart.Action != "restart" || restart.RecoveryMillis < 0 {
		t.Fatalf("restart recovery not measured: %+v", restart)
	}
}

// TestRunTenantChurnMini fans a Zipf-skewed tenant workload across many
// sessions on a memory-budgeted durable daemon: the budget is far below
// the fleet's total footprint, so cold tenants must evict to their
// checkpoints and rehydrate on their next touch mid-drive. The exactly-
// once gate (summed across tenants) plus live eviction/rehydration
// counters are the harness-level proof that oversubscription loses
// nothing: every acked edge lands in exactly one tenant's estimator, no
// matter how many times that tenant was parked and revived.
func TestRunTenantChurnMini(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end scenario run")
	}
	spec, err := ParseSpec([]byte(`{
		"name": "tenant-churn-mini", "seed": 23,
		"workload": {"family": "uniform", "n": 500, "m": 60, "k": 5},
		"fleet": {"connections": 2, "batch_edges": 256, "tenants": 12, "skew": 1.1},
		"daemon": {"durable": true, "wal_nosync": true, "checkpoint_every": "250ms", "mem_budget": 2000000},
		"phases": [{"name": "churn", "duration": "3s"}],
		"gates": {"require_exactly_once": true}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(spec, Options{PollInterval: 50e6})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("tenant churn mini failed: %+v error=%s", rep.Gates, rep.Error)
	}
	if rep.Tenants != 12 {
		t.Fatalf("tenants not reported: %+v", rep)
	}
	if rep.EdgesSent == 0 || rep.EdgesApplied != rep.EdgesSent {
		t.Fatalf("sent=%d applied=%d", rep.EdgesSent, rep.EdgesApplied)
	}
	if rep.ServerCounters["evictions_total"] == 0 || rep.ServerCounters["rehydrations_total"] == 0 {
		t.Fatalf("budget never forced churn: evictions=%d rehydrations=%d",
			rep.ServerCounters["evictions_total"], rep.ServerCounters["rehydrations_total"])
	}
}

// TestBudgetRehydratedGate: a run whose spec sets daemon.mem_budget fails
// unless the server's counters show a rehydration, so a budget too large
// to ever evict cannot pass as an oversubscription run; a spec without a
// budget gets no such row.
func TestBudgetRehydratedGate(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
		"name": "budget", "seed": 1,
		"workload": {"family": "uniform", "n": 100, "m": 20, "k": 3},
		"daemon": {"durable": true, "mem_budget": 1000000},
		"phases": [{"name": "p", "duration": "1s"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	gate := func(rehydrations int64) *GateResult {
		rep := &ScenarioReport{ServerCounters: map[string]int64{"rehydrations_total": rehydrations}}
		for _, g := range evaluateGates(spec, rep, nil, nil, "", nil) {
			if g.Name == "budget_rehydrated" {
				return &g
			}
		}
		return nil
	}
	if g := gate(0); g == nil || g.Pass {
		t.Fatalf("no rehydration under a budget: gate %+v, want a failing row", g)
	}
	if g := gate(3); g == nil || !g.Pass || g.Actual != 3 {
		t.Fatalf("3 rehydrations under a budget: gate %+v, want a passing row with actual 3", g)
	}
	spec.Daemon.MemBudget = 0
	if g := gate(0); g != nil {
		t.Fatalf("a spec without a budget got the row %+v", g)
	}
}

// TestRunClusterFailoverMini is the harness-level acceptance slice: a
// 3-node fleet ingests through overlapping replication partitions (every
// node's peer plane cut in turn, so the whole plane is severed whatever
// the placement chose) and an orderly leader failover, and must still end
// with every surviving replica byte-equal to the fault-free single-node
// reference, every edge applied exactly once, and a staleness-bounded
// follower read agreeing with the leader.
func TestRunClusterFailoverMini(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end cluster scenario run")
	}
	spec, err := ParseSpec([]byte(`{
		"name": "cluster-failover-mini", "seed": 17,
		"workload": {"family": "uniform", "n": 2000, "m": 200, "k": 10},
		"fleet": {"connections": 2, "batch_edges": 256},
		"daemon": {"durable": true, "wal_nosync": true, "proxy": true, "checkpoint_every": "500ms"},
		"cluster": {"nodes": 3, "heartbeat": "25ms", "max_stale": "5s"},
		"phases": [
			{"name": "warm", "duration": "1s", "rate": 3000},
			{"name": "chaos", "duration": "2s", "rate": 2000},
			{"name": "settle", "duration": "1500ms", "rate": 1000}
		],
		"faults": [
			{"kind": "peer_partition", "at": "1s", "duration": "600ms", "node": 0},
			{"kind": "peer_partition", "at": "1200ms", "duration": "600ms", "node": 1},
			{"kind": "peer_partition", "at": "1400ms", "duration": "600ms", "node": 2}
		],
		"lifecycle": [{"at": "3200ms", "action": "failover"}],
		"gates": {"require_exactly_once": true, "require_reference_match": true, "require_replica_convergence": true}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(spec, Options{PollInterval: 50e6})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("cluster failover mini failed: %+v error=%s", rep.Gates, rep.Error)
	}
	if rep.EdgesSent == 0 || rep.EdgesApplied != rep.EdgesSent {
		t.Fatalf("sent=%d applied=%d", rep.EdgesSent, rep.EdgesApplied)
	}
	if len(rep.Lifecycle) != 1 || rep.Lifecycle[0].Action != "failover" || rep.Lifecycle[0].Leader == "" {
		t.Fatalf("failover not recorded with the promoted leader: %+v", rep.Lifecycle)
	}
	if rep.Leader != rep.Lifecycle[0].Leader {
		t.Fatalf("final leader %q != promoted %q", rep.Leader, rep.Lifecycle[0].Leader)
	}
	// One node died in the failover; the two survivors must both report,
	// byte-equal, with exactly one of them leading.
	if len(rep.Replicas) != 2 {
		t.Fatalf("replica snapshot: %+v", rep.Replicas)
	}
	leaders := 0
	for _, r := range rep.Replicas {
		if r.Role == "leader" {
			leaders++
		}
		if r.Digest != rep.Replicas[0].Digest {
			t.Fatalf("survivors diverged: %+v", rep.Replicas)
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders in the final snapshot: %+v", leaders, rep.Replicas)
	}
	if len(rep.Faults) != 3 {
		t.Fatalf("faults: %+v", rep.Faults)
	}
}
