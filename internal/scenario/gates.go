package scenario

import "fmt"

// evaluateGates turns the spec's GateSpec into pass/fail rows against the
// measured report. Zero-valued limits are skipped entirely — a scenario
// only answers for the gates it declares — except that a daemon.mem_budget
// always brings the budget_rehydrated gate. replicaConv carries the
// cluster convergence verdict (nil when the check could not run),
// replicaDetail the divergence, if any.
func evaluateGates(spec *Spec, rep *ScenarioReport, refMatch *bool, replicaConv *bool, replicaDetail string, baseline *ScenarioReport) []GateResult {
	g := spec.Gates
	var out []GateResult

	if g.MinEdgesPerSec > 0 {
		actual := rep.Throughput()
		out = append(out, GateResult{
			Name: "min_edges_per_sec", Limit: g.MinEdgesPerSec, Actual: actual,
			Pass: actual >= g.MinEdgesPerSec,
		})
	}

	if g.MaxP99Millis > 0 {
		var worst float64
		for _, p := range rep.Phases {
			if p.Batches > 0 && p.P99Millis > worst {
				worst = p.P99Millis
			}
		}
		out = append(out, GateResult{
			Name: "max_p99_ms", Limit: g.MaxP99Millis, Actual: worst,
			Pass: worst <= g.MaxP99Millis,
		})
	}

	if g.MaxRecoveryMillis > 0 {
		var worst float64
		unrecovered := false
		for _, f := range rep.Faults {
			if f.RecoveryMillis < 0 {
				unrecovered = true
			} else if f.RecoveryMillis > worst {
				worst = f.RecoveryMillis
			}
		}
		for _, l := range rep.Lifecycle {
			if l.Action != "restart" {
				continue
			}
			if l.RecoveryMillis < 0 {
				unrecovered = true
			} else if l.RecoveryMillis > worst {
				worst = l.RecoveryMillis
			}
		}
		r := GateResult{Name: "max_recovery_ms", Limit: g.MaxRecoveryMillis, Actual: worst,
			Pass: !unrecovered && worst <= g.MaxRecoveryMillis}
		if unrecovered {
			r.Detail = "a fault window never recovered to healthy"
		}
		out = append(out, r)
	}

	if g.RequireExactlyOnce {
		diff := rep.EdgesApplied - rep.EdgesSent
		r := GateResult{Name: "require_exactly_once", Actual: float64(diff), Pass: diff == 0 && rep.EdgesSent > 0}
		if diff != 0 {
			r.Detail = fmt.Sprintf("server applied %d of %d sent edges", rep.EdgesApplied, rep.EdgesSent)
		} else if rep.EdgesSent == 0 {
			r.Detail = "no edges were sent"
		}
		out = append(out, r)
	}

	if g.RequireReferenceMatch {
		r := GateResult{Name: "require_reference_match"}
		if refMatch == nil {
			r.Detail = "reference replay did not run (earlier failure)"
		} else if *refMatch {
			r.Pass = true
			r.Actual = 1
		} else {
			r.Detail = "server result differs from the same-seed reference estimator"
		}
		out = append(out, r)
	}

	if g.RequireReplicaConvergence {
		r := GateResult{Name: "require_replica_convergence"}
		if replicaConv == nil {
			r.Detail = "convergence check did not run (earlier failure)"
		} else if *replicaConv {
			r.Pass = true
			r.Actual = float64(len(rep.Replicas))
		} else {
			r.Detail = replicaDetail
		}
		out = append(out, r)
	}

	// A budget that never evicts measures no oversubscription: a run
	// under one passes only if some session was brought back from its
	// checkpoint.
	if b := spec.Daemon.MemBudget; b > 0 {
		n := rep.ServerCounters["rehydrations_total"]
		r := GateResult{Name: "budget_rehydrated", Actual: float64(n), Pass: n > 0}
		if n == 0 {
			r.Detail = fmt.Sprintf("no session rehydrated under mem_budget %d", b)
		}
		out = append(out, r)
	}

	if g.MaxThroughputDropPct > 0 {
		r := GateResult{Name: "max_throughput_drop_pct", Limit: g.MaxThroughputDropPct, Pass: true}
		if baseline == nil {
			r.Detail = "no baseline provided; gate skipped"
		} else if base := baseline.Throughput(); base <= 0 {
			r.Detail = "baseline throughput is zero; gate skipped"
		} else {
			drop := (base - rep.Throughput()) / base * 100
			r.Actual = drop
			r.Pass = drop <= g.MaxThroughputDropPct
			if !r.Pass {
				r.Detail = fmt.Sprintf("throughput fell from %.0f to %.0f edges/s", base, rep.Throughput())
			}
		}
		out = append(out, r)
	}

	return out
}
