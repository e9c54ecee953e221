package core

import (
	"math/rand"
	"testing"

	"streamcover/internal/hash"
	"streamcover/internal/stream"
	"streamcover/internal/workload"
)

// runEstimator builds an estimator, feeds the instance once (shuffled
// order, pass-counted) and returns the result.
func runEstimator(t *testing.T, in *workload.Instance, alpha float64, p Params, seed int64) (Estimate, *Estimator) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	est, err := NewEstimator(in.System.M(), in.System.N, in.K, alpha, p, NewOracleFactory(), rng)
	if err != nil {
		t.Fatal(err)
	}
	it := stream.NewCounting(stream.Linearize(in.System, stream.Shuffled, rng))
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		est.Process(e)
	}
	if it.Passes != 1 {
		t.Fatalf("estimator consumed %d passes, want exactly 1", it.Passes)
	}
	return est.Result(), est
}

// --- Lemma 3.5: the universe-reduction hash preserves large sets ---

func TestUniverseReductionLemma35(t *testing.T) {
	// For a set S with |S| ≥ z, Pr[|h(S)| ≥ z/4] ≥ 3/4 under a 4-wise h.
	rng := rand.New(rand.NewSource(1))
	for _, z := range []uint64{32, 128, 1024} {
		good := 0
		const trials = 200
		for trial := 0; trial < trials; trial++ {
			h := hash.New4Wise(rng)
			distinct := make(map[uint64]struct{})
			for e := uint64(0); e < z; e++ { // |S| = z exactly
				distinct[h.Range(e, z)] = struct{}{}
			}
			if uint64(len(distinct)) >= z/4 {
				good++
			}
		}
		if good < trials*3/4 {
			t.Errorf("z=%d: |h(S)| >= z/4 in only %d/%d trials, want >= 150", z, good, trials)
		}
	}
}

// --- Theorem 3.6 with a mock oracle: the wrapper is generic ---

// exactOracle computes the exact greedy coverage of the reduced instance —
// a perfect (1, 0, ·)-oracle. With it, EstimateMaxCover's output must land
// in [OPT/(8·ZBase), OPT].
type exactOracle struct {
	d    Derived
	sets map[uint32]map[uint32]struct{}
}

func newExactOracle(d Derived, _ *rand.Rand) CoverageOracle {
	return &exactOracle{d: d, sets: make(map[uint32]map[uint32]struct{})}
}

func (o *exactOracle) Process(e stream.Edge) {
	s, ok := o.sets[e.Set]
	if !ok {
		s = make(map[uint32]struct{})
		o.sets[e.Set] = s
	}
	s[e.Elem] = struct{}{}
}

func (o *exactOracle) ProcessBatch(edges []stream.Edge, _ *BatchScratch) {
	for _, e := range edges {
		o.Process(e)
	}
}

func (o *exactOracle) Result() OracleResult {
	pairs := make(map[uint32][]uint32, len(o.sets))
	for id, elems := range o.sets {
		for e := range elems {
			pairs[id] = append(pairs[id], e)
		}
	}
	ids, covered := greedyOnPairs(pairs, o.d.K)
	return OracleResult{Value: float64(covered), Feasible: covered > 0, SetIDs: ids}
}

func (o *exactOracle) SpaceWords() int {
	w := 0
	for _, s := range o.sets {
		w += len(s)
	}
	return w
}

func TestEstimateMaxCoverWithExactOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := workload.PlantedCover(4000, 300, 10, 0.7, 3, rng)
	p := Practical()
	alpha := 4.0
	est, err := NewEstimator(in.System.M(), in.System.N, in.K, alpha, p, newExactOracle, rng)
	if err != nil {
		t.Fatal(err)
	}
	it := stream.Linearize(in.System, stream.Shuffled, rng)
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		est.Process(e)
	}
	res := est.Result()
	if !res.Feasible {
		t.Fatal("infeasible with an exact oracle")
	}
	opt := float64(in.PlantedCoverage)
	// Reduced-universe coverage of OPT at the winning guess z ≤ OPT is at
	// least z/4 (Lemma 3.5) and the exact oracle is lossless beyond that.
	if res.Value > opt {
		t.Errorf("exact-oracle estimate %v exceeds OPT %v", res.Value, opt)
	}
	if res.Value < opt/(8*p.ZBase) {
		t.Errorf("exact-oracle estimate %v below OPT/(8·base) = %v", res.Value, opt/(8*p.ZBase))
	}
}

// --- End-to-end: Theorem 3.1 behaviour on the three oracle case families ---

func TestEstimatorOnPlantedFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end estimator is seconds-long")
	}
	alpha := 4.0
	cases := []struct {
		name string
		in   *workload.Instance
	}{
		{"planted", workload.PlantedCover(10000, 1000, 20, 0.8, 5, rand.New(rand.NewSource(3)))},
		{"largesets", workload.PlantedLargeSets(10000, 1000, 20, 2, 0.8, rand.New(rand.NewSource(4)))},
		{"smallsets", workload.PlantedSmallSets(10000, 1000, 100, 0.8, rand.New(rand.NewSource(5)))},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			res, _ := runEstimator(t, c.in, alpha, Practical(), 6)
			if !res.Feasible {
				t.Fatal("estimator infeasible")
			}
			opt := float64(c.in.PlantedCoverage)
			if res.Value > 1.4*opt {
				t.Errorf("estimate %v exceeds 1.4·OPT = %v (no-overestimate)", res.Value, 1.4*opt)
			}
			if res.Value < opt/(1.5*alpha) {
				t.Errorf("estimate %v below OPT/(1.5α) = %v", res.Value, opt/(1.5*alpha))
			}
		})
	}
}

func TestEstimatorNeverGrosslyOverestimates(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end estimator is seconds-long")
	}
	// Instances with small optima: the estimate must stay ≤ 1.4·OPTupper.
	rng := rand.New(rand.NewSource(7))
	cases := []*workload.Instance{
		workload.PlantedCover(20000, 500, 5, 0.02, 1, rng), // OPT = 400
		workload.Uniform(20000, 500, 10, 10, rng),
	}
	for _, in := range cases {
		res, _ := runEstimator(t, in, 4, Practical(), 8)
		up := optUpper(in)
		if res.Feasible && res.Value > 1.4*up {
			t.Errorf("%s: estimate %v > 1.4·OPTupper %v", in.Name, res.Value, up)
		}
	}
}

func TestEstimatorReportingCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end estimator is seconds-long")
	}
	// Theorem 3.2 behaviour: the reported sets' true coverage must be an
	// Ω(1/α) fraction of OPT and at most k sets may be reported.
	alpha := 4.0
	for seed, in := range []*workload.Instance{
		workload.PlantedCover(10000, 1000, 20, 0.8, 5, rand.New(rand.NewSource(9))),
		workload.PlantedLargeSets(10000, 1000, 20, 2, 0.8, rand.New(rand.NewSource(10))),
		workload.PlantedSmallSets(10000, 1000, 100, 0.8, rand.New(rand.NewSource(11))),
	} {
		res, _ := runEstimator(t, in, alpha, Practical(), int64(12+seed))
		if !res.Feasible {
			t.Fatalf("%s: infeasible", in.Name)
		}
		if res.SetIDs == nil {
			t.Fatalf("%s: no reported sets", in.Name)
		}
		if len(res.SetIDs) > in.K {
			t.Fatalf("%s: %d sets reported > k=%d", in.Name, len(res.SetIDs), in.K)
		}
		cov := coverageOf(in.System, res.SetIDs)
		if float64(cov) < float64(in.PlantedCoverage)/(3*alpha) {
			t.Errorf("%s: reported cover %d below OPT/(3α) = %v",
				in.Name, cov, float64(in.PlantedCoverage)/(3*alpha))
		}
	}
}

func TestEstimatorTrivialBranch(t *testing.T) {
	// kα ≥ m: Figure 1 answers n/α without reading the stream.
	rng := rand.New(rand.NewSource(13))
	est, err := NewEstimator(100, 5000, 50, 4, Practical(), NewOracleFactory(), rng)
	if err != nil {
		t.Fatal(err)
	}
	est.Process(stream.Edge{Set: 0, Elem: 0}) // must be a no-op
	res := est.Result()
	if !res.Feasible || res.Value != 5000.0/4 {
		t.Errorf("trivial branch returned %+v, want n/α = 1250", res)
	}
	if est.Guesses() != 0 {
		t.Errorf("trivial estimator built %d guesses", est.Guesses())
	}
}

func TestEstimatorGuessLadder(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	p := Practical()
	est, err := NewEstimator(5000, 4096, 4, 8, p, newExactOracle, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Ladder 4, 16, 64, ..., 4096 with ZBase=4: 6 guesses, last = n.
	if est.Guesses() != 6 {
		t.Errorf("Guesses() = %d, want 6 for n=4096 base=4", est.Guesses())
	}
}

func TestEstimatorRejectsBadDims(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	if _, err := NewEstimator(0, 10, 1, 2, Practical(), NewOracleFactory(), rng); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := NewEstimator(10, 10, 1, 0.5, Practical(), NewOracleFactory(), rng); err == nil {
		t.Error("alpha<1 accepted")
	}
}

func TestEstimatorSpaceShrinksWithAlpha(t *testing.T) {
	// Theorem 3.1's Õ(m/α²): at fixed m, construction-time space must
	// drop substantially as α grows.
	rng := rand.New(rand.NewSource(16))
	p := Practical()
	build := func(alpha float64) int {
		est, err := NewEstimator(4000, 4000, 64, alpha, p, NewOracleFactory(), rng)
		if err != nil {
			t.Fatal(err)
		}
		return est.SpaceWords()
	}
	s4, s16 := build(4), build(16)
	if float64(s16) > 0.5*float64(s4) {
		t.Errorf("space did not shrink with alpha: α=4 %d words, α=16 %d words", s4, s16)
	}
}

func TestOracleDispatchAcrossFamilies(t *testing.T) {
	// Experiment E15: each planted family must be caught by its designed
	// subroutine when the oracle runs standalone on the unreduced stream.
	rng := rand.New(rand.NewSource(17))
	type probe struct {
		name   string
		in     *workload.Instance
		expect string
	}
	probes := []probe{
		{"commonheavy", workload.CommonHeavy(5000, 1000, 10, 200, 0.4, 2, rng), "largecommon"},
		{"largesets", workload.PlantedLargeSets(8000, 1000, 20, 2, 0.8, rng), "largeset"},
		{"smallsets", workload.PlantedSmallSets(8000, 2000, 200, 0.8, rng), "smallset"},
	}
	for _, pr := range probes {
		pr := pr
		t.Run(pr.name, func(t *testing.T) {
			d := mustDerive(t, pr.in, 4)
			o := NewOracle(d, rng)
			feed(t, pr.in, 18, o.Process)
			res := o.Result()
			if !res.Feasible {
				t.Fatal("oracle infeasible on its designed case")
			}
			won := ""
			if v, _, ok := o.lc.Estimate(); ok && v == res.Value {
				won = "largecommon"
			} else if lsr := o.ls.Estimate(); lsr.Feasible && lsr.Value == res.Value {
				won = "largeset"
			} else if ssr := o.ss.Estimate(); ssr.Feasible && ssr.Value == res.Value {
				won = "smallset"
			}
			t.Logf("winner: %s (value %.1f)", won, res.Value)
			// The designed subroutine must at least have accepted, even if
			// another one legally won the max.
			switch pr.expect {
			case "largecommon":
				if _, _, ok := o.lc.Estimate(); !ok {
					t.Error("LargeCommon did not accept its designed case")
				}
			case "largeset":
				if !o.ls.Estimate().Feasible {
					t.Error("LargeSet did not accept its designed case")
				}
			case "smallset":
				if !o.ss.Estimate().Feasible {
					t.Error("SmallSet did not accept its designed case")
				}
			}
		})
	}
}
