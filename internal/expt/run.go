package expt

import (
	"math/rand"

	"streamcover/internal/core"
	"streamcover/internal/stream"
	"streamcover/internal/workload"
)

// ours runs the paper's estimator on an instance and reports what the
// experiments need.
type oursResult struct {
	Estimate   float64
	Feasible   bool
	SpaceWords int
	// ReportedCoverage is the true coverage of the reported set IDs
	// (the Theorem 3.2 reporting quality), 0 if nothing was reported.
	ReportedCoverage int
	ReportedSets     int
}

func runOurs(in *workload.Instance, alpha float64, p core.Params, seed int64) (oursResult, error) {
	rng := rand.New(rand.NewSource(seed))
	est, err := core.NewEstimator(in.System.M(), in.System.N, in.K, alpha, p, core.NewOracleFactory(), rng)
	if err != nil {
		return oursResult{}, err
	}
	feed(est, stream.Linearize(in.System, stream.Shuffled, rng).Edges())
	r := est.Result()
	out := oursResult{
		Estimate:   r.Value,
		Feasible:   r.Feasible,
		SpaceWords: est.SpaceWords(),
	}
	if len(r.SetIDs) > 0 {
		ids := make([]int, len(r.SetIDs))
		for i, id := range r.SetIDs {
			ids[i] = int(id)
		}
		out.ReportedCoverage = in.System.Coverage(ids)
		out.ReportedSets = len(r.SetIDs)
	}
	return out, nil
}

// feed streams edges into est in arrival order through its one ingest
// path, ProcessColumns, which chunks the stream itself.
func feed(est *core.Estimator, edges []stream.Edge) {
	cols := columnsOf(edges)
	est.ProcessColumns(cols.Sets, cols.Elems)
}

// indexed returns a batch scratch indexed over edges, for driving a
// standalone oracle's or subroutine's ProcessBatch with them.
func indexed(edges []stream.Edge) *core.BatchScratch {
	cols := columnsOf(edges)
	sc := core.NewBatchScratch()
	sc.IndexColumns(cols.Sets, cols.Elems)
	return sc
}

// columnsOf splits edges into set and element columns.
func columnsOf(edges []stream.Edge) stream.Columns {
	var cols stream.Columns
	for _, e := range edges {
		cols.Append(e.Set, e.Elem)
	}
	return cols
}

// ratio returns opt/value, the approximation factor in the paper's
// "factor ≥ 1" convention (+Inf guarded as 0-value → ratio 0 means n/a).
func ratio(opt int, value float64) float64 {
	if value <= 0 {
		return 0
	}
	return float64(opt) / value
}
