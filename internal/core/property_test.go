package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"streamcover/internal/stream"
	"streamcover/internal/workload"
)

// TestEstimatorNeverCrashesOnRandomTinyInstances is a robustness property:
// arbitrary tiny dimensions and random edges must never panic and must
// never report a value above the universe size.
func TestEstimatorNeverCrashesOnRandomTinyInstances(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(40)
		n := 1 + rng.Intn(60)
		k := 1 + rng.Intn(m)
		alpha := 1 + 4*rng.Float64()
		est, err := NewEstimator(m, n, k, alpha, Practical(), NewOracleFactory(), rng)
		if err != nil {
			return false
		}
		for i := 0; i < 200; i++ {
			est.Process(stream.Edge{
				Set:  uint32(rng.Intn(m)),
				Elem: uint32(rng.Intn(n)),
			})
		}
		r := est.Result()
		return r.Value <= float64(n)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestGreedyOnPairsMatchesSetSystem is a property of SmallSet's offline
// stage: greedyOnPairs on a stored map must compute the same coverage as
// the setsystem greedy on the equivalent instance.
func TestGreedyOnPairsMatchesSetSystem(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := workload.Uniform(30, 10, 3, 6, rng)
		pairs := make(map[uint32][]uint32)
		for i, s := range in.System.Sets {
			if len(s) > 0 {
				pairs[uint32(i)] = s
			}
		}
		_, got := greedyOnPairs(pairs, in.K)
		_, want := in.System.LazyGreedy(in.K)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRateThresholdMonotone: rate thresholds preserve order, the
// foundation of the nested-sampling layers.
func TestRateThresholdMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		if a < 0 {
			a = -a
		}
		if b < 0 {
			b = -b
		}
		if a > 1 {
			a = 1 / a
		}
		if b > 1 {
			b = 1 / b
		}
		ta, tb := rateThreshold(a), rateThreshold(b)
		if a <= b {
			return ta <= tb
		}
		return ta >= tb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if rateThreshold(0) != 0 {
		t.Error("rateThreshold(0) != 0")
	}
}

// TestPaperConstantsAreConservative runs the estimator end-to-end with the
// literal Table 2 constants on a laptop-scale instance: the subroutines'
// acceptance thresholds (σ ~ 10^-5, f ~ 10^2) are so demanding that the
// oracle returns only tiny certified values — never an overestimate. This
// documents DESIGN.md §3's claim that the paper preset is for formula
// fidelity, not for running.
func TestPaperConstantsAreConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := workload.PlantedCover(4000, 800, 20, 0.8, 5, rng)
	p := Paper(in.System.M(), in.System.N)
	est, err := NewEstimator(in.System.M(), in.System.N, in.K, 4, p, NewOracleFactory(), rng)
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
	r := est.Result()
	if r.Feasible && r.Value > float64(in.PlantedCoverage) {
		t.Errorf("paper constants overestimated: %v > OPT %d", r.Value, in.PlantedCoverage)
	}
	// The practical estimator draws its hashes from its own source: sharing
	// rng made them depend on how much randomness the paper estimator's
	// construction and Result consumed.
	prac, err := NewEstimator(in.System.M(), in.System.N, in.K, 4, Practical(), NewOracleFactory(), rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	it.Reset()
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		prac.Process(e)
	}
	pr := prac.Result()
	if !pr.Feasible {
		t.Fatal("practical preset infeasible on the planted instance")
	}
	if r.Feasible && r.Value > pr.Value {
		t.Errorf("paper constants (%v) beat practical (%v)? calibration claim inverted", r.Value, pr.Value)
	}
}

// TestHLLBackendEndToEnd: the estimator stays inside the guarantee window
// with the HyperLogLog distinct-count backend.
func TestHLLBackendEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := workload.PlantedCover(6000, 800, 20, 0.8, 5, rng)
	p := Practical()
	p.UseHLL = true
	est, err := NewEstimator(in.System.M(), in.System.N, in.K, 4, p, NewOracleFactory(), rng)
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
	r := est.Result()
	opt := float64(in.PlantedCoverage)
	if !r.Feasible {
		t.Fatal("HLL backend infeasible")
	}
	if r.Value > 1.4*opt || r.Value < opt/(1.5*4) {
		t.Errorf("HLL backend estimate %v outside [OPT/6, 1.4·OPT], OPT=%v", r.Value, opt)
	}
}

// TestParallelProcessingDeterministic at the core layer (the facade test
// covers the public path).
func TestParallelProcessingDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := workload.PlantedCover(5000, 500, 10, 0.8, 3, rng)
	edges := stream.Linearize(in.System, stream.Shuffled, rng).Edges()
	build := func() *Estimator {
		e, err := NewEstimator(in.System.M(), in.System.N, in.K, 4, Practical(),
			NewOracleFactory(), rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	seq := build()
	for _, e := range edges {
		seq.Process(e)
	}
	for _, workers := range []int{1, 3, 16} {
		par := build()
		par.SetParallelism(workers)
		processEdges(par, edges)
		if par.Result().Value != seq.Result().Value {
			t.Errorf("workers=%d diverged: %v vs %v", workers, par.Result().Value, seq.Result().Value)
		}
	}
}
