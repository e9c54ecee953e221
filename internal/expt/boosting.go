package expt

import (
	"math/rand"

	"streamcover/internal/core"
	"streamcover/internal/stream"
	"streamcover/internal/workload"
)

// RepetitionBoosting is experiment E21 (Theorem 3.6's log(1/δ) loop):
// success rate of the estimator across independent seeds with 1 vs 3
// repetitions per coverage guess. "Success" means the estimate lands in
// [OPT/(1.5α), 1.4·OPT]. More repetitions trade space for reliability,
// exactly as the failure-probability analysis prescribes.
func RepetitionBoosting(seed int64) (*Table, error) {
	t := &Table{
		ID:     "E21",
		Title:  "Failure-probability boosting (Theorem 3.6)",
		Note:   "planted m=400 n=2500 k=16 alpha=4; success = estimate in [OPT/6, 1.4*OPT]; 12 seeds",
		Header: []string{"repetitions", "successes", "trials", "success rate", "space (words)"},
	}
	const trials = 12
	rng := rand.New(rand.NewSource(seed))
	in := workload.PlantedCover(2500, 400, 16, 0.8, 5, rng)
	opt := float64(in.PlantedCoverage)
	for _, reps := range []int{1, 3} {
		p := core.Practical()
		p.Reps = reps
		success := 0
		space := 0
		for trial := 0; trial < trials; trial++ {
			est, err := core.NewEstimator(in.System.M(), in.System.N, in.K, 4, p,
				core.NewOracleFactory(), rand.New(rand.NewSource(seed+int64(trial)*37)))
			if err != nil {
				return nil, err
			}
			feed(est, stream.Linearize(in.System, stream.Shuffled, rng).Edges())
			r := est.Result()
			if r.Feasible && r.Value >= opt/(1.5*4) && r.Value <= 1.4*opt {
				success++
			}
			space = est.SpaceWords()
		}
		t.AddRow(reps, success, trials, float64(success)/trials, space)
	}
	return t, nil
}
