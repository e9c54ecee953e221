package streamcover

// Split-invariance suite for the facade's ingest entries: Process (one
// edge at a time, buffered into fixed runs), ProcessBatch (whole stream
// and arbitrary splits), ProcessAll and ProcessAll on four engine
// workers must produce bit-identical Estimate/Report results — same
// coverage, same feasibility, same reported set IDs, same retained space
// — on every seed, workload family and shuffled arrival order. Every
// entry feeds the one batch path, so this checks that batch boundaries
// and worker counts change nothing; internal/core's
// TestReferenceEquivalence holds that path to the paper's per-edge
// chain.

import (
	"math/rand"
	"reflect"
	"testing"

	"streamcover/internal/stream"
	"streamcover/internal/workload"
)

// batchFamilies are the three workload families of the suite, chosen so
// each oracle subroutine's designed regime is exercised.
var batchFamilies = []struct {
	name string
	gen  func(rng *rand.Rand) *workload.Instance
}{
	{"planted", func(rng *rand.Rand) *workload.Instance {
		return workload.PlantedCover(1500, 300, 8, 0.8, 4, rng)
	}},
	{"commonheavy", func(rng *rand.Rand) *workload.Instance {
		return workload.CommonHeavy(1500, 300, 8, 40, 0.4, 2, rng)
	}},
	{"smallsets", func(rng *rand.Rand) *workload.Instance {
		return workload.PlantedSmallSets(1500, 500, 50, 0.8, rng)
	}},
}

// shuffledEdges linearizes an instance in shuffled arrival order as
// public-API edges.
func shuffledEdges(in *workload.Instance, seed int64) []Edge {
	raw := stream.Linearize(in.System, stream.Shuffled, rand.New(rand.NewSource(seed))).Edges()
	edges := make([]Edge, len(raw))
	for i, e := range raw {
		edges[i] = Edge{Set: e.Set, Elem: e.Elem}
	}
	return edges
}

func TestCrossPathEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, fam := range batchFamilies {
			rng := rand.New(rand.NewSource(seed * 101))
			in := fam.gen(rng)
			m, n, k := in.System.M(), in.System.N, in.K
			edges := shuffledEdges(in, seed*7+1)

			build := func() *Estimator {
				est, err := NewEstimator(m, n, k, 4, WithSeed(seed))
				if err != nil {
					t.Fatal(err)
				}
				return est
			}

			// One Process call per edge, which buffers fixed runs.
			seq := build()
			for _, e := range edges {
				if err := seq.Process(e); err != nil {
					t.Fatal(err)
				}
			}

			// Batched, split at arbitrary boundaries (empty batches and
			// boundary-at-0/boundary-at-len included by construction).
			split := build()
			prev := 0
			for prev < len(edges) {
				cut := prev + rng.Intn(len(edges)-prev+1)
				if err := split.ProcessBatch(edges[prev:cut]); err != nil {
					t.Fatal(err)
				}
				prev = cut
			}

			variants := map[string]*Estimator{"split-batch": split}
			whole := build()
			if err := whole.ProcessBatch(edges); err != nil {
				t.Fatal(err)
			}
			variants["whole-batch"] = whole
			all := build()
			if err := all.ProcessAll(edges); err != nil {
				t.Fatal(err)
			}
			variants["process-all"] = all
			par := build()
			par.SetParallelism(4)
			if err := par.ProcessAll(edges); err != nil {
				t.Fatal(err)
			}
			variants["parallel"] = par

			want := seq.Result()
			for name, est := range variants {
				if est.Edges() != seq.Edges() {
					t.Errorf("%s/%s seed %d: edges %d != %d", fam.name, name, seed, est.Edges(), seq.Edges())
				}
				if got := est.Result(); !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s seed %d: Result %+v != sequential %+v", fam.name, name, seed, got, want)
				}
			}
		}
	}
}

// TestProcessBatchRejectsAtomically checks the documented all-or-nothing
// validation: an invalid edge anywhere in the batch leaves the estimator
// untouched, unlike ProcessAll's valid-prefix semantics.
func TestProcessBatchRejectsAtomically(t *testing.T) {
	est, err := NewEstimator(10, 100, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Edge{{Set: 1, Elem: 5}, {Set: 99, Elem: 5}, {Set: 2, Elem: 6}}
	if err := est.ProcessBatch(bad); err == nil {
		t.Fatal("expected out-of-range set to be rejected")
	}
	if est.Edges() != 0 {
		t.Errorf("rejected batch still consumed %d edges", est.Edges())
	}
	ref, _ := NewEstimator(10, 100, 3, 2)
	if !reflect.DeepEqual(est.Result(), ref.Result()) {
		t.Error("rejected batch mutated estimator state")
	}

	// ProcessAll keeps its valid-prefix semantics.
	all, _ := NewEstimator(10, 100, 3, 2)
	if err := all.ProcessAll(bad); err == nil {
		t.Fatal("expected ProcessAll to report the invalid edge")
	}
	if all.Edges() != 1 {
		t.Errorf("ProcessAll consumed %d edges, want the valid prefix of 1", all.Edges())
	}
}
