package expt

import (
	"math/rand"

	"streamcover/internal/core"
	"streamcover/internal/stream"
	"streamcover/internal/workload"
)

// subroutineRun feeds an instance (shuffled) to a standalone oracle and
// reports which subroutines accepted and at what values.
type subroutineRun struct {
	lcVal, lsVal, ssVal float64
	lcOK, lsOK, ssOK    bool
	winner              string
	value               float64
}

func runOracle(in *workload.Instance, alpha float64, seed int64) (subroutineRun, error) {
	rng := rand.New(rand.NewSource(seed))
	d, err := core.Derive(in.System.M(), in.System.N, in.K, alpha, core.Practical())
	if err != nil {
		return subroutineRun{}, err
	}
	o := core.NewOracle(d, rng)
	edges := stream.Linearize(in.System, stream.Shuffled, rng).Edges()
	o.ProcessBatch(edges, indexed(edges))
	var run subroutineRun
	run.lcVal, _, run.lcOK = o.LargeCommonEstimate()
	lsr := o.LargeSetEstimate()
	run.lsVal, run.lsOK = lsr.Value, lsr.Feasible
	ssr := o.SmallSetEstimate()
	run.ssVal, run.ssOK = ssr.Value, ssr.Feasible
	res := o.Result()
	run.value = res.Value
	switch {
	case run.lcOK && run.lcVal == res.Value:
		run.winner = "LargeCommon"
	case run.lsOK && run.lsVal == res.Value:
		run.winner = "LargeSet"
	case run.ssOK && run.ssVal == res.Value:
		run.winner = "SmallSet"
	default:
		run.winner = "none"
	}
	return run, nil
}

// OracleDispatch is experiment E15 (Figure 2 / Theorem 4.1) and folds in
// E6–E8: the three planted case families each exercise their designed
// subroutine; the table shows every subroutine's verdict per family.
func OracleDispatch(seed int64) (*Table, error) {
	t := &Table{
		ID:    "E15",
		Title: "Oracle case dispatch (Figure 2; covers E6 LargeCommon, E7 LargeSet, E8 SmallSet)",
		Note:  "alpha=4; values are coverage estimates, OPT column is the planted/greedy bound",
		Header: []string{
			"family (designed case)", "OPT", "LargeCommon", "LargeSet", "SmallSet", "winner", "ratio",
		},
	}
	rng := rand.New(rand.NewSource(seed))
	families := []struct {
		name string
		in   *workload.Instance
	}{
		{"commonheavy (I)", workload.CommonHeavy(5000, 2000, 20, 600, 0.4, 2, rng)},
		{"largesets (II)", workload.PlantedLargeSets(20000, 2000, 40, 2, 0.8, rng)},
		{"smallsets (III)", workload.PlantedSmallSets(20000, 2000, 200, 0.8, rng)},
	}
	fmtVal := func(v float64, ok bool) string {
		if !ok {
			return "infeasible"
		}
		return trimFloat(v)
	}
	for _, f := range families {
		run, err := runOracle(f.in, 4, seed+1)
		if err != nil {
			return nil, err
		}
		opt := f.in.OptLowerBound()
		t.AddRow(f.name, opt,
			fmtVal(run.lcVal, run.lcOK),
			fmtVal(run.lsVal, run.lsOK),
			fmtVal(run.ssVal, run.ssOK),
			run.winner, ratio(opt, run.value))
	}
	return t, nil
}
