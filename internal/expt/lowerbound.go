package expt

import (
	"math/rand"

	"streamcover/internal/core"
	"streamcover/internal/disjointness"
)

// LowerBoundConfig sizes the E4 sweep.
type LowerBoundConfig struct {
	M      int // item universe of the DSJ instances (= sets of Max 1-Cover)
	R      int // players (= the α of the reduction)
	Trials int
	Seed   int64
}

// DefaultLowerBoundConfig keeps trials fast but statistically legible.
func DefaultLowerBoundConfig() LowerBoundConfig {
	return LowerBoundConfig{M: 8192, R: 16, Trials: 20, Seed: 3}
}

// LowerBound is experiment E4 (Theorem 3.3 / Section 5): it sweeps the
// L∞-via-L2 distinguisher's width across multiples of m/α² and reports
// Yes/No classification accuracy on promise instances. Accuracy is high
// at width Ω̃(m/α²) and collapses to chance (all-Yes answers) well below
// it — the operational content of the Ω(m/α²) bound. The final rows feed
// the reduced Max 1-Cover streams to the paper's own estimator, verifying
// it separates the α-gap instances (Claims 5.3/5.4).
func LowerBound(cfg LowerBoundConfig) (*Table, error) {
	t := &Table{
		ID:    "E4",
		Title: "Lower-bound hard instances (Theorem 3.3, Claims 5.3/5.4)",
		Note:  "DSJ(m=" + trimFloat(float64(cfg.M)) + ", r=" + trimFloat(float64(cfg.R)) + "); base width m/r^2",
		Header: []string{
			"distinguisher", "width multiplier", "space (words)", "yes acc", "no acc",
		},
	}
	base := cfg.M / (cfg.R * cfg.R)
	if base < 1 {
		base = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, mult := range []float64{0.25, 1, 4, 32} {
		width := int(float64(base) * mult)
		if width < 2 {
			width = 2
		}
		var yesOK, noOK, space int
		for trial := 0; trial < cfg.Trials; trial++ {
			for _, no := range []bool{false, true} {
				ins, err := disjointness.Generate(cfg.R, cfg.M, no, 0.9, rng)
				if err != nil {
					return nil, err
				}
				d := disjointness.NewDistinguisher(width, rng)
				for _, s := range ins.Sets {
					for _, j := range s {
						d.Process(j)
					}
				}
				space = d.SpaceWords()
				if got := d.DecideNo(cfg.R); got == no {
					if no {
						noOK++
					} else {
						yesOK++
					}
				}
			}
		}
		t.AddRow("L2 sketch (L_inf proxy)", mult, space,
			float64(yesOK)/float64(cfg.Trials), float64(noOK)/float64(cfg.Trials))
	}

	// The paper's estimator on the reduced Max 1-Cover instances: the
	// estimate must separate OPT=r (No) from OPT=1 (Yes).
	p := core.Practical()
	var yesEst, noEst float64
	for _, no := range []bool{false, true} {
		ins, err := disjointness.Generate(cfg.R, cfg.M, no, 0.9, rng)
		if err != nil {
			return nil, err
		}
		est, err := core.NewEstimator(cfg.M, cfg.R, 1, float64(cfg.R)/2, p,
			core.NewOracleFactory(), rng)
		if err != nil {
			return nil, err
		}
		feed(est, ins.ToCoverStream())
		r := est.Result()
		if no {
			noEst = r.Value
		} else {
			yesEst = r.Value
		}
	}
	t.AddRow("EstimateMaxCover on reduction", "—", "—",
		"est(Yes)="+trimFloat(yesEst), "est(No)="+trimFloat(noEst))
	return t, nil
}
