package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"streamcover/internal/stream"
	"streamcover/internal/workload"
)

// The per-edge transcription of the paper's Figures 1–5: one edge at a
// time through the universe reduction, the oracle and its three
// subroutines, as the paper states them. Ingest runs ProcessColumns
// (batch.go); this chain is the reference the equivalence suites hold it
// to, edge by edge and byte for byte.

// edgeOracle is an oracle the reference chain can feed one edge at a
// time: the paper's Oracle and the tests' own oracles.
type edgeOracle interface{ Process(e stream.Edge) }

// Process feeds one edge: each guess's repetitions receive the edge with
// the element replaced by its pseudo-element h(e) ∈ [z].
func (est *Estimator) Process(e stream.Edge) {
	if est.trivial {
		return
	}
	for gi := range est.guesses {
		g := &est.guesses[gi]
		for ri := range g.reps {
			rep := &g.reps[ri]
			reduced := stream.Edge{
				Set:  e.Set,
				Elem: uint32(rep.h.Range(uint64(e.Elem), uint64(g.z))),
			}
			rep.oracle.(edgeOracle).Process(reduced)
		}
	}
}

// Process fans the edge out to all three subroutines.
func (o *Oracle) Process(e stream.Edge) {
	o.lc.Process(e)
	o.ls.Process(e)
	o.ss.Process(e)
}

// Process feeds one edge: each layer whose (nested) sample keeps the
// edge's set adds the element to that layer's distinct counter.
func (lc *LargeCommon) Process(e stream.Edge) {
	v := lc.h.Eval(uint64(e.Set))
	for i := range lc.layers {
		if v < lc.layers[i].thresh {
			lc.layers[i].de.Add(uint64(e.Elem))
		}
	}
}

// Process feeds one edge to every repetition whose element sample keeps it.
func (ls *LargeSet) Process(e stream.Edge) {
	for i := range ls.reps {
		rep := &ls.reps[i]
		if !rep.elemSamp.Bernoulli(uint64(e.Elem), ls.rho) {
			continue
		}
		ss := rep.part.Superset(e.Set)
		rep.cntrSmall.Add(ss)
		rep.cntrLarge.Add(ss)
		if de, ok := rep.sampled[ss]; ok {
			de.Add(uint64(e.Elem))
		}
	}
}

// Process stores the edge in every live layer whose element samples keep
// it, provided the set is in M. A layer that exceeds its Õ(m/α²) storage
// cap is abandoned, as Figure 5's terminate branch prescribes. Once every
// layer is dead no edge can change any state, so processing returns
// before evaluating any of the three hashes.
func (ss *SmallSet) Process(e stream.Edge) {
	if ss.live == 0 {
		return
	}
	if !ss.setSamp.Bernoulli(uint64(e.Set), ss.mRate) {
		return
	}
	ss.store(e, ss.pickSamp.Eval(uint64(e.Elem)), ss.estSamp.Eval(uint64(e.Elem)))
}

// TestCrossPathReferenceEquivalence holds the one ingest path to the
// paper's per-edge chain: on three workload families (each aimed at one
// oracle subroutine) × three seeds, plus query-mix's shape (m=200,
// n=2000, k=10, α=4, whose battery levels refresh inside batches and
// sample below rate 1) on both distinct-counter backends, ProcessColumns
// over the whole stream and over random splits must leave the Result
// (reported sets included), SpaceWords and AppendState bytes of one
// reference Process call per edge.
func TestCrossPathReferenceEquivalence(t *testing.T) {
	type shape struct {
		name  string
		gen   func(rng *rand.Rand) *workload.Instance
		hll   bool
		seeds []int64
	}
	shapes := []shape{
		{"planted", func(rng *rand.Rand) *workload.Instance {
			return workload.PlantedCover(1500, 300, 8, 0.8, 4, rng)
		}, false, []int64{1, 2, 3}},
		{"commonheavy", func(rng *rand.Rand) *workload.Instance {
			return workload.CommonHeavy(1500, 300, 8, 40, 0.4, 2, rng)
		}, false, []int64{1, 2, 3}},
		{"smallsets", func(rng *rand.Rand) *workload.Instance {
			return workload.PlantedSmallSets(1500, 500, 50, 0.8, rng)
		}, false, []int64{1, 2, 3}},
	}
	queryMix := func(rng *rand.Rand) *workload.Instance { return workload.Uniform(2000, 200, 10, 150, rng) }
	shapes = append(shapes,
		shape{"query-mix", queryMix, false, []int64{1}},
		shape{"query-mix hll", queryMix, true, []int64{1}})
	for _, sh := range shapes {
		for _, seed := range sh.seeds {
			rng := rand.New(rand.NewSource(seed * 101))
			in := sh.gen(rng)
			edges := collectShuffled(in, seed*7+1)
			p := Practical()
			p.UseHLL = sh.hll
			build := func() *Estimator {
				est, err := NewEstimator(in.System.M(), in.System.N, in.K, 4, p, NewOracleFactory(), rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				return est
			}

			ref := build()
			for _, e := range edges {
				ref.Process(e)
			}
			whole := build()
			processEdges(whole, edges)
			split := build()
			for _, batch := range splitAt(edges, randomCuts(len(edges), 6, rng)) {
				processEdges(split, batch)
			}

			want, err := ref.AppendState(nil)
			if err != nil {
				t.Fatal(err)
			}
			for name, est := range map[string]*Estimator{"whole": whole, "split": split} {
				if got, w := est.Result(), ref.Result(); !reflect.DeepEqual(got, w) {
					t.Errorf("%s seed %d, %s: Result %+v, per-edge reference %+v", sh.name, seed, name, got, w)
				}
				if got, w := est.SpaceWords(), ref.SpaceWords(); got != w {
					t.Errorf("%s seed %d, %s: SpaceWords %d, per-edge reference %d", sh.name, seed, name, got, w)
				}
				got, err := est.AppendState(nil)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s seed %d, %s: state bytes differ from the per-edge reference's", sh.name, seed, name)
				}
			}
		}
	}
}
