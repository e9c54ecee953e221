package expt

import (
	"math/rand"

	"streamcover/internal/baseline"
	"streamcover/internal/core"
	"streamcover/internal/disjointness"
	"streamcover/internal/stream"
	"streamcover/internal/workload"
)

// SpaceComposition is experiment E16: where the Õ(m/α²) words actually
// live, per subroutine, across α. The LargeSet heavy-hitter batteries
// (the true m/α² term) should dominate at small α and fade as α grows,
// while the α-independent floors (LargeCommon's L0 ladder, the reduction
// hashes) remain.
func SpaceComposition(seed int64) (*Table, error) {
	t := &Table{
		ID:     "E16",
		Title:  "Space composition across alpha (ablation)",
		Note:   "m=2000, n=10000, k=32; words per component after one pass",
		Header: []string{"alpha", "largecommon", "largeset", "smallset", "reduction", "total"},
	}
	rng := rand.New(rand.NewSource(seed))
	in := workload.PlantedCover(10000, 2000, 32, 0.8, 5, rng)
	for _, alpha := range []float64{2, 4, 8, 16} {
		est, err := core.NewEstimator(in.System.M(), in.System.N, in.K, alpha,
			core.Practical(), core.NewOracleFactory(), rand.New(rand.NewSource(seed+int64(alpha))))
		if err != nil {
			return nil, err
		}
		feed(est, stream.Linearize(in.System, stream.Shuffled, rng).Edges())
		br := est.SpaceBreakdown()
		t.AddRow(alpha, br["largecommon"], br["largeset"], br["smallset"],
			br["reduction"], est.SpaceWords())
	}
	return t, nil
}

// ArrivalOrderInvariance is experiment E17: the edge-arrival algorithm's
// estimate must be essentially unaffected by arrival order — including the
// element-major order that breaks set-arrival algorithms (footnote 2).
// The set-arrival baseline's collapse is reproduced alongside for
// contrast.
func ArrivalOrderInvariance(seed int64) (*Table, error) {
	t := &Table{
		ID:     "E17",
		Title:  "Arrival-order invariance (ablation; paper footnote 2)",
		Note:   "same instance, four arrival orders; ours vs set-arrival threshold greedy",
		Header: []string{"order", "ours estimate", "ours ratio", "threshold-greedy coverage", "tg ratio"},
	}
	rng := rand.New(rand.NewSource(seed))
	in := workload.PlantedCover(10000, 1000, 20, 0.8, 5, rng)
	opt := in.PlantedCoverage
	orders := []struct {
		name string
		ord  stream.Order
	}{
		{"set-arrival", stream.SetArrival},
		{"shuffled", stream.Shuffled},
		{"element-major", stream.ElementMajor},
		{"round-robin", stream.RoundRobin},
	}
	for _, o := range orders {
		est, err := core.NewEstimator(in.System.M(), in.System.N, in.K, 4,
			core.Practical(), core.NewOracleFactory(), rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, err
		}
		tg := baseline.NewThresholdGreedy(in.System.N, in.K, 0.2)
		edges := stream.Linearize(in.System, o.ord, rng).Edges()
		feed(est, edges)
		for _, e := range edges {
			tg.Process(e)
		}
		r := est.Result()
		_, tgCov := tg.Result()
		t.AddRow(o.name, r.Value, ratio(opt, r.Value), tgCov, ratio(opt, float64(tgCov)))
	}
	return t, nil
}

// HoldoutAblation is experiment E18: SmallSet's held-out estimation vs
// the naive estimate-on-the-picking-sample variant. The naive variant
// inflates the estimate above OPT on noisy uniform instances (selection
// bias); the held-out split is what preserves Definition 3.4's
// no-overestimate property at practical sample sizes (DESIGN.md §3).
func HoldoutAblation(seed int64) (*Table, error) {
	t := &Table{
		ID:     "E18",
		Title:  "SmallSet held-out estimation vs naive (ablation)",
		Note:   "uniform instance: max k-cover is noisy; naive rescaling overfits the sample",
		Header: []string{"variant", "OPT upper bound", "estimate", "estimate/OPTub"},
	}
	rng := rand.New(rand.NewSource(seed))
	in := workload.Uniform(20000, 2000, 40, 30, rng)
	_, g := in.System.Greedy(in.K)
	optUB := float64(g) / (1 - 1/2.718281828)
	d, err := core.Derive(in.System.M(), in.System.N, in.K, 4, core.Practical())
	if err != nil {
		return nil, err
	}
	ss := core.NewSmallSet(d, rand.New(rand.NewSource(seed+1)))
	edges := stream.Linearize(in.System, stream.Shuffled, rng).Edges()
	ss.ProcessBatch(edges, indexed(edges))
	held := ss.Estimate()
	naive := ss.EstimateNaive()
	t.AddRow("held-out (ours)", optUB, held.Value, held.Value/optUB)
	t.AddRow("naive (pick==estimate)", optUB, naive.Value, naive.Value/optUB)
	return t, nil
}

// DistinctBackendAblation is experiment E20: the estimator end-to-end
// with the bottom-k L0 backend (default; exact below capacity) vs the
// HyperLogLog backend (Theorem 2.12 is implementation-agnostic — the
// paper cites five different L0 algorithms). Both must land in the
// guarantee window; space shifts where the L0 ladder matters.
func DistinctBackendAblation(seed int64) (*Table, error) {
	t := &Table{
		ID:     "E20",
		Title:  "Distinct-count backend: bottom-k L0 vs HyperLogLog (ablation)",
		Note:   "planted m=2000 n=10000 k=32 alpha=4; Theorem 2.12 allows either",
		Header: []string{"backend", "estimate", "ratio", "largecommon words", "total words"},
	}
	rng := rand.New(rand.NewSource(seed))
	in := workload.PlantedCover(10000, 2000, 32, 0.8, 5, rng)
	for _, hll := range []bool{false, true} {
		p := core.Practical()
		p.UseHLL = hll
		est, err := core.NewEstimator(in.System.M(), in.System.N, in.K, 4, p,
			core.NewOracleFactory(), rand.New(rand.NewSource(seed+7)))
		if err != nil {
			return nil, err
		}
		feed(est, stream.Linearize(in.System, stream.Shuffled, rng).Edges())
		r := est.Result()
		name := "bottom-k L0 (default)"
		if hll {
			name = "HyperLogLog"
		}
		t.AddRow(name, r.Value, ratio(in.PlantedCoverage, r.Value),
			est.SpaceBreakdown()["largecommon"], est.SpaceWords())
	}
	return t, nil
}

// NoiseGateAblation is experiment E19: the heavy-hitter noise gate on vs
// off, measured as the estimator's Yes-instance inflation on the
// set-disjointness hard inputs. Without the extreme-value gate, phantom
// heavy hitters make the Yes estimate approach the No estimate and the
// α-gap closes.
func NoiseGateAblation(seed int64) (*Table, error) {
	t := &Table{
		ID:     "E19",
		Title:  "Heavy-hitter noise gate (ablation; DSJ Yes-instance inflation)",
		Note:   "r=16, m=8192; oracle LargeSet value on Yes (OPT=1) and No (OPT=16) instances",
		Header: []string{"instance", "OPT", "LargeSet estimate", "inflation vs OPT"},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, no := range []bool{false, true} {
		ins, err := disjointness.Generate(16, 8192, no, 0.9, rng)
		if err != nil {
			return nil, err
		}
		d, err := core.Derive(8192, 16, 1, 8, core.Practical())
		if err != nil {
			return nil, err
		}
		ls := core.NewLargeSet(d, rng)
		edges := ins.ToCoverStream()
		ls.ProcessBatch(edges, indexed(edges))
		res := ls.Estimate()
		val := res.Value
		if !res.Feasible {
			val = 0
		}
		name := "Yes (disjoint)"
		if no {
			name = "No (unique common)"
		}
		opt := ins.CoverOPT()
		t.AddRow(name, opt, val, val/float64(opt))
	}
	return t, nil
}
