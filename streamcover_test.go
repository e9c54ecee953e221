package streamcover

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// plantedEdges builds a shuffled edge stream with a known optimal k-cover:
// k disjoint sets covering `covered` elements plus singleton decoys.
func plantedEdges(m, n, k, covered int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	var edges []Edge
	for i := 0; i < k; i++ {
		lo, hi := i*covered/k, (i+1)*covered/k
		for e := lo; e < hi; e++ {
			edges = append(edges, Edge{Set: uint32(i), Elem: uint32(e)})
		}
	}
	for s := k; s < m; s++ {
		edges = append(edges, Edge{Set: uint32(s), Elem: uint32(rng.Intn(covered))})
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

func TestEstimatorEndToEnd(t *testing.T) {
	const (
		m, n, k = 1000, 10000, 20
		covered = 8000
		alpha   = 4.0
	)
	edges := plantedEdges(m, n, k, covered, 1)
	est, err := NewEstimator(m, n, k, alpha, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := est.ProcessAll(edges); err != nil {
		t.Fatal(err)
	}
	if est.Edges() != len(edges) {
		t.Errorf("Edges() = %d, want %d", est.Edges(), len(edges))
	}
	res := est.Result()
	if !res.Feasible {
		t.Fatal("infeasible on a dense planted instance")
	}
	if res.Coverage > 1.4*covered {
		t.Errorf("Coverage %v exceeds 1.4·OPT = %v", res.Coverage, 1.4*covered)
	}
	if res.Coverage < covered/(1.5*alpha) {
		t.Errorf("Coverage %v below OPT/(1.5α) = %v", res.Coverage, covered/(1.5*alpha))
	}
	if len(res.SetIDs) == 0 || len(res.SetIDs) > k {
		t.Fatalf("reported %d sets, want 1..%d", len(res.SetIDs), k)
	}
	cov, err := Coverage(edges, m, n, res.SetIDs)
	if err != nil {
		t.Fatal(err)
	}
	if float64(cov) < float64(covered)/(3*alpha) {
		t.Errorf("reported sets truly cover %d, below OPT/(3α)", cov)
	}
	if res.SpaceWords <= 0 {
		t.Error("SpaceWords not positive")
	}
}

func TestEstimatorDeterministicAcrossRuns(t *testing.T) {
	edges := plantedEdges(300, 3000, 10, 2000, 2)
	run := func() Result {
		est, err := NewEstimator(300, 3000, 10, 4, WithSeed(99))
		if err != nil {
			t.Fatal(err)
		}
		if err := est.ProcessAll(edges); err != nil {
			t.Fatal(err)
		}
		return est.Result()
	}
	a, b := run(), run()
	if a.Coverage != b.Coverage || a.Feasible != b.Feasible {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestEstimatorRejectsBadInput(t *testing.T) {
	if _, err := NewEstimator(0, 10, 1, 2); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := NewEstimator(10, 10, 1, 0.2); err == nil {
		t.Error("alpha<1 accepted")
	}
	est, err := NewEstimator(10, 10, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := est.Process(Edge{Set: 10, Elem: 0}); err == nil {
		t.Error("out-of-range set accepted")
	}
	if err := est.Process(Edge{Set: 0, Elem: 10}); err == nil {
		t.Error("out-of-range element accepted")
	}
	if err := est.ProcessAll([]Edge{{0, 0}, {0, 99}}); err == nil {
		t.Error("ProcessAll swallowed an invalid edge")
	}
}

func TestEstimatorOptions(t *testing.T) {
	edges := plantedEdges(300, 3000, 10, 2000, 3)
	est, err := NewEstimator(300, 3000, 10, 4,
		WithSeed(5), WithRepetitions(2), WithGuessBase(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := est.ProcessAll(edges); err != nil {
		t.Fatal(err)
	}
	res := est.Result()
	if !res.Feasible {
		t.Fatal("infeasible with boosted options")
	}
	// Bad option values fall back to defaults rather than breaking.
	if _, err := NewEstimator(300, 3000, 10, 4, WithRepetitions(-1), WithGuessBase(0.5)); err != nil {
		t.Fatal(err)
	}
}

func TestCoverageHelper(t *testing.T) {
	edges := []Edge{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 4}}
	if got, err := Coverage(edges, 3, 5, []uint32{0, 1}); err != nil || got != 3 {
		t.Errorf("Coverage = %d, %v, want 3", got, err)
	}
	if got, err := Coverage(edges, 3, 5, nil); err != nil || got != 0 {
		t.Errorf("Coverage(nil) = %d, %v, want 0", got, err)
	}
	// Out-of-range IDs are errors, matching GreedyCover's validation.
	if _, err := Coverage([]Edge{{0, 99}}, 5, 5, []uint32{0}); err == nil {
		t.Error("out-of-range element accepted")
	}
	if _, err := Coverage(edges, 3, 5, []uint32{7}); err == nil {
		t.Error("set id >= m accepted")
	}
	if _, err := Coverage([]Edge{{9, 0}}, 3, 5, nil); err == nil {
		t.Error("edge set id >= m accepted")
	}
}

func TestGreedyCoverHelper(t *testing.T) {
	edges := []Edge{
		{0, 0}, {0, 1}, {0, 2},
		{1, 2}, {1, 3},
		{2, 4},
	}
	ids, cov, err := GreedyCover(edges, 3, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cov != 4 { // optimal for k=2: {0,1,2} plus either other set
		t.Errorf("greedy coverage %d, want 4", cov)
	}
	if len(ids) != 2 {
		t.Errorf("greedy picked %v", ids)
	}
	if _, _, err := GreedyCover([]Edge{{9, 0}}, 3, 5, 1); err == nil {
		t.Error("out-of-range set accepted")
	}
	if _, _, err := GreedyCover([]Edge{{0, 9}}, 3, 5, 1); err == nil {
		t.Error("out-of-range element accepted")
	}
}

func TestEstimatorTrivialRegime(t *testing.T) {
	// kα ≥ m: the answer is n/α immediately.
	est, err := NewEstimator(10, 1000, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	res := est.Result()
	if !res.Feasible || res.Coverage != 250 {
		t.Errorf("trivial regime result %+v, want coverage 250", res)
	}
}

func TestSpaceBreakdownSumsToTotal(t *testing.T) {
	edges := plantedEdges(300, 3000, 10, 2000, 4)
	est, err := NewEstimator(300, 3000, 10, 4, WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := est.ProcessAll(edges); err != nil {
		t.Fatal(err)
	}
	br := est.SpaceBreakdown()
	for _, part := range []string{"largecommon", "largeset", "smallset", "reduction"} {
		if br[part] <= 0 {
			t.Errorf("component %q has %d words", part, br[part])
		}
	}
	sum := 0
	for _, w := range br {
		sum += w
	}
	total := est.Result().SpaceWords
	// The breakdown covers all but the top-level bookkeeping constants.
	if sum > total || total-sum > 100 {
		t.Errorf("breakdown sums to %d, total %d", sum, total)
	}
}

// TestFreshEstimatorAllocation bounds what a session's construction
// allocates before its first edge, on one engine worker, in paced-tenants'
// shape and bulk-ingest's: sketches allocate their caches (layouts,
// candidate indexes) at their first write, not at construction. Each
// figure is the least of three constructions.
func TestFreshEstimatorAllocation(t *testing.T) {
	for _, sh := range []struct {
		name    string
		m, n, k int
		alpha   float64
		limit   uint64
	}{
		{"paced-tenant", 60, 500, 5, 4, 400 << 10},
		{"bulk-ingest", 2000, 100000, 40, 8, 1536 << 10},
	} {
		least := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			est, err := NewEstimator(sh.m, sh.n, sh.k, sh.alpha, WithParallelism(1))
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			est.Close()
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > sh.limit {
			t.Errorf("%s: a fresh estimator allocated %d KB, limit %d KB", sh.name, least>>10, sh.limit>>10)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	edges := plantedEdges(500, 5000, 10, 4000, 8)
	seq, err := NewEstimator(500, 5000, 10, 4, WithSeed(77))
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.ProcessAll(edges); err != nil {
		t.Fatal(err)
	}
	par, err := NewEstimator(500, 5000, 10, 4, WithSeed(77))
	if err != nil {
		t.Fatal(err)
	}
	par.SetParallelism(4)
	if err := par.ProcessAll(edges); err != nil {
		t.Fatal(err)
	}
	sr, pr := seq.Result(), par.Result()
	if sr.Coverage != pr.Coverage || sr.Feasible != pr.Feasible {
		t.Errorf("parallel diverged: seq %+v vs par %+v", sr, pr)
	}
	if seq.Edges() != par.Edges() {
		t.Errorf("edge counts diverged: %d vs %d", seq.Edges(), par.Edges())
	}
}

func TestParallelValidatesInput(t *testing.T) {
	est, err := NewEstimator(10, 10, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	est.SetParallelism(2)
	if err := est.ProcessAll([]Edge{{Set: 99, Elem: 0}}); err == nil {
		t.Error("out-of-range set accepted by parallel path")
	}
	if err := est.ProcessAll([]Edge{{Set: 0, Elem: 99}}); err == nil {
		t.Error("out-of-range element accepted by parallel path")
	}
	est.SetParallelism(0)
	if err := est.ProcessAll(nil); err != nil {
		t.Errorf("empty parallel feed errored: %v", err)
	}
}

func TestFacadeMergeShards(t *testing.T) {
	edges := plantedEdges(600, 6000, 12, 4800, 10)
	build := func() *Estimator {
		est, err := NewEstimator(600, 6000, 12, 4, WithSeed(31))
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	whole := build()
	if err := whole.ProcessAll(edges); err != nil {
		t.Fatal(err)
	}
	a, b := build(), build()
	for i, e := range edges {
		var err error
		if i%2 == 0 {
			err = a.Process(e)
		} else {
			err = b.Process(e)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	wr, mr := whole.Result(), a.Result()
	if !mr.Feasible {
		t.Fatal("merged infeasible")
	}
	if mr.Coverage < 0.85*wr.Coverage || mr.Coverage > 1.15*wr.Coverage {
		t.Errorf("merged %v vs whole %v beyond 15%%", mr.Coverage, wr.Coverage)
	}
	if a.Edges() != whole.Edges() {
		t.Errorf("merged edge count %d != %d", a.Edges(), whole.Edges())
	}
	if err := a.Merge(nil); err == nil {
		t.Error("nil merge accepted")
	}
	diff, err := NewEstimator(600, 6000, 12, 4, WithSeed(32))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(diff); err == nil {
		t.Error("different-seed merge accepted")
	}
}

func TestCloneSnapshotsState(t *testing.T) {
	const (
		m, n, k = 600, 6000, 12
		alpha   = 4.0
	)
	edges := plantedEdges(m, n, k, 4800, 11)
	est, err := NewEstimator(m, n, k, alpha, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	half := len(edges) / 2
	if err := est.ProcessAll(edges[:half]); err != nil {
		t.Fatal(err)
	}
	snap := est.Result()
	clone, err := est.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if clone.Edges() != est.Edges() {
		t.Errorf("clone edge count %d != %d", clone.Edges(), est.Edges())
	}
	// The original keeps ingesting; the clone must be unaffected (this is
	// kcoverd's checkpoint path: snapshot, then encode off the ingest path).
	if err := est.ProcessAll(edges[half:]); err != nil {
		t.Fatal(err)
	}
	// SpaceWords may differ slightly (the clone's candidate dictionaries
	// are re-trimmed on merge); the estimate itself must not.
	cr := clone.Result()
	if cr.Coverage != snap.Coverage || cr.Feasible != snap.Feasible ||
		!equalIDs(cr.SetIDs, snap.SetIDs) {
		t.Errorf("clone drifted after original kept processing: %+v vs snapshot %+v", cr, snap)
	}
	// And the clone still works as a live estimator: feeding it the rest
	// reconverges with the original.
	if err := clone.ProcessAll(edges[half:]); err != nil {
		t.Fatal(err)
	}
	fr, or := clone.Result(), est.Result()
	if fr.Coverage != or.Coverage || !equalIDs(fr.SetIDs, or.SetIDs) {
		t.Errorf("clone+rest %+v != original %+v", fr, or)
	}
}

// TestCloneFinalizeDuringIngest is kcoverd's checkpoint and /digest path
// under the race detector: a clone taken between batches shares its
// source's dense CountSketch layouts, and is finalized (Result and Encode)
// on another goroutine while the source keeps ingesting through the
// parallel batch engine. Every clone must answer and encode exactly as a
// clone of an undisturbed reference at the same prefix.
func TestCloneFinalizeDuringIngest(t *testing.T) {
	const (
		m, n, k = 120, 1000, 6
		alpha   = 4.0
		chunks  = 4
	)
	edges := snapEdges(41, m, n, 6000)
	part := func(i int) []Edge { return edges[i*len(edges)/chunks : (i+1)*len(edges)/chunks] }
	type answer struct {
		res Result
		enc []byte
	}
	finalize := func(e *Estimator) (answer, error) {
		enc, err := e.Encode()
		return answer{e.Result(), enc}, err
	}

	ref, err := NewEstimator(m, n, k, alpha, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]answer, chunks)
	for i := range want {
		if err := ref.ProcessBatch(part(i)); err != nil {
			t.Fatal(err)
		}
		c, err := ref.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = finalize(c); err != nil {
			t.Fatal(err)
		}
	}

	est, err := NewEstimator(m, n, k, alpha, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer est.Close()
	var wg sync.WaitGroup
	for i := 0; i < chunks; i++ {
		if err := est.ProcessBatch(part(i)); err != nil {
			t.Fatal(err)
		}
		c, err := est.Clone()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, c *Estimator) {
			defer wg.Done()
			got, err := finalize(c)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got.res, want[i].res) {
				t.Errorf("clone %d: result %+v, reference %+v", i, got.res, want[i].res)
			}
			if !bytes.Equal(got.enc, want[i].enc) {
				t.Errorf("clone %d: encoding differs from the reference's", i)
			}
		}(i, c)
	}
	wg.Wait()
}

func equalIDs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
