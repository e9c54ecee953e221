package core

import (
	"math/rand"
	"testing"

	"streamcover/internal/setsystem"
	"streamcover/internal/stream"
	"streamcover/internal/workload"
)

// feed streams an instance (shuffled edge arrival) into any Process-able.
func feed(t *testing.T, in *workload.Instance, seed int64, proc func(stream.Edge)) {
	t.Helper()
	it := stream.Linearize(in.System, stream.Shuffled, rand.New(rand.NewSource(seed)))
	for {
		e, ok := it.Next()
		if !ok {
			return
		}
		proc(e)
	}
}

func mustDerive(t *testing.T, in *workload.Instance, alpha float64) Derived {
	t.Helper()
	d, err := Derive(in.System.M(), in.System.N, in.K, alpha, Practical())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// optUpper bounds the true optimum from above: the planted coverage is
// exact for planted instances; otherwise greedy/(1-1/e).
func optUpper(in *workload.Instance) float64 {
	if in.PlantedIDs != nil {
		return float64(in.PlantedCoverage)
	}
	_, g := in.System.Greedy(in.K)
	return float64(g) / (1 - 1/2.718281828)
}

// --- Set sampling (Lemma 2.3, A.5, A.6; experiment E9) ---

func TestSetSamplerSizeBound(t *testing.T) {
	// Lemma A.5 analogue: |F^rnd| concentrates near rate·m.
	rng := rand.New(rand.NewSource(1))
	d, _ := Derive(4000, 1000, 10, 4, Practical())
	fails := 0
	for trial := 0; trial < 20; trial++ {
		s := NewSetSampler(d, 100, rng) // expect ~100 sampled
		got := len(s.Enumerate(4000))
		if got > 200 || got < 50 {
			fails++
		}
	}
	if fails > 2 {
		t.Errorf("%d/20 trials outside [50, 200] sampled sets (expect ~100)", fails)
	}
}

func TestSetSamplerCoversCommonElements(t *testing.T) {
	// Lemma A.6 analogue: sampling ~λ sets covers elements appearing in
	// ≥ c·m/λ sets. Plant an element in 10% of m=2000 sets and sample
	// λ = 200 sets: expected 20 containing sets hit.
	rng := rand.New(rand.NewSource(2))
	in := workload.CommonHeavy(1000, 2000, 5, 10, 0.1, 2, rng)
	d := mustDerive(t, in, 4)
	misses := 0
	for trial := 0; trial < 10; trial++ {
		s := NewSetSampler(d, 200, rng)
		covered := make(map[uint32]bool)
		for _, id := range s.Enumerate(in.System.M()) {
			for _, e := range in.System.Sets[id] {
				covered[e] = true
			}
		}
		for e := uint32(0); e < 10; e++ {
			if !covered[e] {
				misses++
			}
		}
	}
	if misses > 2 {
		t.Errorf("common elements missed %d/100 times by set sampling", misses)
	}
}

func TestSetSamplerDeterministicAndEnumerable(t *testing.T) {
	d, _ := Derive(500, 100, 5, 2, Practical())
	s := NewSetSampler(d, 50, rand.New(rand.NewSource(3)))
	ids := s.Enumerate(500)
	for _, id := range ids {
		if !s.Sampled(id) {
			t.Fatalf("Enumerate returned unsampled id %d", id)
		}
	}
	count := 0
	for i := 0; i < 500; i++ {
		if s.Sampled(uint32(i)) {
			count++
		}
	}
	if count != len(ids) {
		t.Errorf("Enumerate found %d, membership scan found %d", len(ids), count)
	}
	if s.SpaceWords() <= 0 {
		t.Error("SpaceWords not positive")
	}
}

func TestSetSamplerRateClamps(t *testing.T) {
	d, _ := Derive(10, 10, 5, 2, Practical())
	s := NewSetSampler(d, 1e9, rand.New(rand.NewSource(4)))
	if s.Rate() != 1 {
		t.Errorf("rate %v, want clamp to 1", s.Rate())
	}
	if len(s.Enumerate(10)) != 10 {
		t.Error("rate-1 sampler must keep everything")
	}
	s2 := NewSetSampler(d, -5, rand.New(rand.NewSource(5)))
	if len(s2.Enumerate(10)) != 0 {
		t.Error("rate-0 sampler must keep nothing")
	}
}

// --- Superset partition (Claims 4.9, 4.10; experiment E7) ---

func TestSupersetPartitionBalance(t *testing.T) {
	// Claim 4.9 analogue: no superset receives more than ~w sets. With
	// |Q| = QFactor·m·log m/w the average load is w/(QFactor·log m) < 1;
	// assert max load ≤ 3w.
	rng := rand.New(rand.NewSource(6))
	d, _ := Derive(4000, 1000, 16, 8, Practical()) // w = 8
	sp := NewSupersetPartition(d, rng)
	load := make(map[uint64]int)
	for i := 0; i < 4000; i++ {
		load[sp.Superset(uint32(i))]++
	}
	maxLoad := 0
	for _, l := range load {
		if l > maxLoad {
			maxLoad = l
		}
	}
	if maxLoad > 3*8 {
		t.Errorf("max superset load %d > 3w = 24", maxLoad)
	}
}

func TestSupersetPartitionMultiplicity(t *testing.T) {
	// Claim 4.10 analogue: a non-common element (here: frequency 20 over
	// m = 4000 sets) lands few times in any single superset.
	rng := rand.New(rand.NewSource(7))
	d, _ := Derive(4000, 1000, 16, 8, Practical())
	sp := NewSupersetPartition(d, rng)
	owners := rand.New(rand.NewSource(8)).Perm(4000)[:20]
	mult := make(map[uint64]int)
	for _, s := range owners {
		mult[sp.Superset(uint32(s))]++
	}
	for ss, c := range mult {
		if c > 4 { // f = Õ(1); practical FMult = 2, allow slack
			t.Errorf("element multiplicity %d in superset %d", c, ss)
		}
	}
}

func TestSupersetMembersRoundTrip(t *testing.T) {
	d, _ := Derive(300, 100, 4, 2, Practical())
	sp := NewSupersetPartition(d, rand.New(rand.NewSource(9)))
	target := sp.Superset(42)
	members := sp.Members(300, target, 300)
	found := false
	for _, id := range members {
		if sp.Superset(id) != target {
			t.Fatalf("member %d not in superset %d", id, target)
		}
		if id == 42 {
			found = true
		}
	}
	if !found {
		t.Error("Members missed the probe set")
	}
	if capped := sp.Members(300, target, 1); len(capped) > 1 {
		t.Error("Members ignored the cap")
	}
}

// --- LargeCommon (Theorem 4.4; experiment E6) ---

func TestLargeCommonAcceptsCommonHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	in := workload.CommonHeavy(5000, 1000, 10, 200, 0.4, 2, rng)
	d := mustDerive(t, in, 4)
	lc := NewLargeCommon(d, rng)
	feed(t, in, 11, lc.Process)
	val, beta, ok := lc.Estimate()
	if !ok {
		t.Fatal("LargeCommon rejected a common-heavy instance")
	}
	if beta < 1 {
		t.Errorf("winning beta %v", beta)
	}
	// Never (grossly) overestimate: val ≤ 1.3·OPT (L0 noise slack).
	if up := optUpper(in); val > 1.3*up {
		t.Errorf("LargeCommon estimate %v exceeds 1.3·OPTupper %v", val, 1.3*up)
	}
	// And it must be a useful fraction of OPT for the oracle case-I bound.
	if val < float64(in.OptLowerBound())/(3*4) {
		t.Errorf("LargeCommon estimate %v below OPT/(3α)", val)
	}
}

func TestLargeCommonRejectsSparse(t *testing.T) {
	// An instance with no common elements and tiny total coverage must not
	// be accepted at a high estimate: all layers' distinct counts stay far
	// below thresholds scaled for n.
	rng := rand.New(rand.NewSource(12))
	in := workload.PlantedCover(50000, 1000, 5, 0.01, 1, rng) // OPT = 500 of 50000
	d := mustDerive(t, in, 4)
	lc := NewLargeCommon(d, rng)
	feed(t, in, 13, lc.Process)
	if val, _, ok := lc.Estimate(); ok {
		if val > 1.3*optUpper(in) {
			t.Errorf("accepted sparse instance at %v > OPT %v", val, optUpper(in))
		}
	}
}

func TestLargeCommonCandidateSets(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	in := workload.CommonHeavy(5000, 1000, 10, 200, 0.4, 2, rng)
	d := mustDerive(t, in, 4)
	lc := NewLargeCommon(d, rng)
	feed(t, in, 15, lc.Process)
	ids := lc.CandidateSets()
	if ids == nil {
		t.Fatal("no candidates from accepting LargeCommon")
	}
	if len(ids) > in.K {
		t.Fatalf("%d candidates > k=%d", len(ids), in.K)
	}
	cov := coverageOf(in.System, ids)
	if cov < in.OptLowerBound()/(6*4) {
		t.Errorf("candidate coverage %d below OPT/(6α) = %d", cov, in.OptLowerBound()/24)
	}
}

func coverageOf(ss *setsystem.SetSystem, ids []uint32) int {
	ints := make([]int, len(ids))
	for i, id := range ids {
		ints[i] = int(id)
	}
	return ss.Coverage(ints)
}

// --- LargeSet (Theorem 4.8; experiment E7) ---

func TestLargeSetDetectsLargeSets(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	in := workload.PlantedLargeSets(8000, 1000, 20, 2, 0.8, rng)
	d := mustDerive(t, in, 4)
	ls := NewLargeSet(d, rng)
	feed(t, in, 17, ls.Process)
	res := ls.Estimate()
	if !res.Feasible {
		t.Fatal("LargeSet infeasible on a planted large-set instance")
	}
	n := float64(in.System.N)
	if res.Value < n/(12*4) { // Ω̃(n/α) with practical constant slack
		t.Errorf("LargeSet value %v below n/(12α) = %v", res.Value, n/48)
	}
	if res.Value > 1.5*optUpper(in) {
		t.Errorf("LargeSet value %v exceeds 1.5·OPT %v", res.Value, optUpper(in))
	}
}

func TestLargeSetCandidateSetsCover(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	in := workload.PlantedLargeSets(8000, 1000, 20, 2, 0.8, rng)
	d := mustDerive(t, in, 4)
	ls := NewLargeSet(d, rng)
	feed(t, in, 19, ls.Process)
	ids := ls.CandidateSets(ls.Estimate())
	if ids == nil {
		t.Fatal("no candidates")
	}
	if len(ids) > in.K {
		t.Fatalf("%d candidates > k", len(ids))
	}
	cov := coverageOf(in.System, ids)
	if cov < in.System.N/(12*4) {
		t.Errorf("candidate coverage %d below n/(12α)", cov)
	}
}

func TestLargeSetQuietOnTinyCoverage(t *testing.T) {
	// OPT covers 1% of the universe: LargeSet may accept only at a value
	// consistent with no-overestimation.
	rng := rand.New(rand.NewSource(20))
	in := workload.PlantedCover(50000, 1000, 5, 0.01, 1, rng)
	d := mustDerive(t, in, 4)
	ls := NewLargeSet(d, rng)
	feed(t, in, 21, ls.Process)
	if res := ls.Estimate(); res.Feasible && res.Value > 1.5*optUpper(in) {
		t.Errorf("LargeSet value %v on 1%%-coverage instance (OPT %v)", res.Value, optUpper(in))
	}
}

// --- SmallSet (Theorem 4.22; experiment E8) ---

func TestSmallSetDetectsManySmallSets(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	in := workload.PlantedSmallSets(8000, 2000, 200, 0.8, rng)
	d := mustDerive(t, in, 4)
	ss := NewSmallSet(d, rng)
	feed(t, in, 23, ss.Process)
	res := ss.Estimate()
	if !res.Feasible {
		t.Fatal("SmallSet infeasible on a planted small-set instance")
	}
	if res.Value < float64(in.PlantedCoverage)/(8*4) {
		t.Errorf("SmallSet value %v below OPT/(8α)", res.Value)
	}
	if res.Value > 1.5*float64(in.PlantedCoverage) {
		t.Errorf("SmallSet value %v exceeds 1.5·OPT %v", res.Value, in.PlantedCoverage)
	}
	if len(res.SetIDs) > ss.KPrime() {
		t.Errorf("%d candidate sets > k' = %d", len(res.SetIDs), ss.KPrime())
	}
	// The candidates' true coverage must back a Θ(1/α) fraction of OPT.
	if cov := coverageOf(in.System, res.SetIDs); cov < in.PlantedCoverage/(10*4) {
		t.Errorf("candidate coverage %d below OPT/(10α)", cov)
	}
}

func TestSmallSetKPrimeScaling(t *testing.T) {
	p := Practical()
	d4, _ := Derive(1000, 1000, 100, 4, p)
	d16, _ := Derive(1000, 1000, 100, 16, p)
	s4 := NewSmallSet(d4, rand.New(rand.NewSource(24)))
	s16 := NewSmallSet(d16, rand.New(rand.NewSource(25)))
	if s4.KPrime() <= s16.KPrime() {
		t.Errorf("k' should shrink with alpha: %d vs %d", s4.KPrime(), s16.KPrime())
	}
	if s4.MRate() <= s16.MRate() {
		t.Errorf("M rate should shrink with alpha: %v vs %v", s4.MRate(), s16.MRate())
	}
	if s16.KPrime() < 1 {
		t.Error("k' must be at least 1")
	}
}

func TestSmallSetStorageCap(t *testing.T) {
	// A dense instance with a tiny cap must kill layers, not blow memory.
	rng := rand.New(rand.NewSource(26))
	p := Practical()
	p.StoreCapFactor = 0.01
	in := workload.Uniform(500, 500, 10, 50, rng)
	d, _ := Derive(in.System.M(), in.System.N, in.K, 2, p)
	ss := NewSmallSet(d, rng)
	feed(t, in, 27, ss.Process)
	if w := ss.SpaceWords(); w > 10000 {
		t.Errorf("capped SmallSet retains %d words", w)
	}
}
