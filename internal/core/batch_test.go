package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"streamcover/internal/stream"
	"streamcover/internal/workload"
)

// collectShuffled materializes an instance's edges in shuffled arrival
// order.
func collectShuffled(in *workload.Instance, seed int64) []stream.Edge {
	return stream.Linearize(in.System, stream.Shuffled, rand.New(rand.NewSource(seed))).Edges()
}

// columns splits edges into the set and element columns that
// ProcessColumns and IndexColumns take.
func columns(edges []stream.Edge) (sets, elems []uint32) {
	sets, elems = make([]uint32, len(edges)), make([]uint32, len(edges))
	for i, e := range edges {
		sets[i], elems[i] = e.Set, e.Elem
	}
	return sets, elems
}

// processEdges feeds edges to the estimator's batch path as one batch.
func processEdges(est *Estimator, edges []stream.Edge) { est.ProcessColumns(columns(edges)) }

// splitAt partitions edges into batches at the given sorted boundaries.
func splitAt(edges []stream.Edge, cuts []int) [][]stream.Edge {
	var out [][]stream.Edge
	prev := 0
	for _, c := range cuts {
		out = append(out, edges[prev:c])
		prev = c
	}
	return append(out, edges[prev:])
}

// randomCuts draws sorted split points in [0, n], deliberately allowing
// duplicates (empty batches) and 0/n boundaries.
func randomCuts(n, count int, rng *rand.Rand) []int {
	cuts := make([]int, count)
	for i := range cuts {
		cuts[i] = rng.Intn(n + 1)
	}
	for i := 1; i < len(cuts); i++ {
		for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	return cuts
}

// TestOracleBatchEquivalence drives a standalone Oracle through the
// sequential and batched paths and requires bit-identical post-pass
// state: same subroutine verdicts, same space, same Result.
func TestOracleBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := workload.PlantedCover(3000, 600, 12, 0.8, 4, rng)
	d := mustDerive(t, in, 4)
	edges := collectShuffled(in, 7)

	seq := NewOracle(d, rand.New(rand.NewSource(11)))
	bat := NewOracle(d, rand.New(rand.NewSource(11)))
	for _, e := range edges {
		seq.Process(e)
	}
	sc := NewBatchScratch()
	for _, batch := range splitAt(edges, randomCuts(len(edges), 5, rng)) {
		sc.IndexColumns(columns(batch))
		bat.ProcessBatch(batch, sc)
	}

	if a, b := seq.SpaceWords(), bat.SpaceWords(); a != b {
		t.Errorf("SpaceWords: sequential %d != batch %d", a, b)
	}
	av, ab, aok := seq.LargeCommonEstimate()
	bv, bb, bok := bat.LargeCommonEstimate()
	if av != bv || ab != bb || aok != bok {
		t.Errorf("LargeCommon: (%v,%v,%v) != (%v,%v,%v)", av, ab, aok, bv, bb, bok)
	}
	if a, b := seq.LargeSetEstimate(), bat.LargeSetEstimate(); a != b {
		t.Errorf("LargeSet: %+v != %+v", a, b)
	}
	if a, b := seq.SmallSetEstimate(), bat.SmallSetEstimate(); !reflect.DeepEqual(a, b) {
		t.Errorf("SmallSet: %+v != %+v", a, b)
	}
	if a, b := seq.Result(), bat.Result(); !reflect.DeepEqual(a, b) {
		t.Errorf("Result: %+v != %+v", a, b)
	}
}

// TestEstimatorBatchEquivalence checks the full ladder: Process,
// ProcessColumns (whole slice and random splits) and ProcessColumns at
// parallelism 4 must agree bit-for-bit on Estimate/Report output and retained space.
func TestEstimatorBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := workload.PlantedCover(2000, 400, 10, 0.8, 3, rng)
	m, n, k := in.System.M(), in.System.N, in.K
	edges := collectShuffled(in, 3)

	build := func() *Estimator {
		est, err := NewEstimator(m, n, k, 4, Practical(), NewOracleFactory(), rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		return est
	}

	seq := build()
	for _, e := range edges {
		seq.Process(e)
	}
	whole := build()
	processEdges(whole, edges)
	split := build()
	for _, batch := range splitAt(edges, randomCuts(len(edges), 7, rng)) {
		processEdges(split, batch)
	}
	par := build()
	par.SetParallelism(4)
	processEdges(par, edges)

	want := seq.Result()
	for name, est := range map[string]*Estimator{"batch": whole, "split": split, "parallel": par} {
		if got := est.Result(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s Result %+v != sequential %+v", name, got, want)
		}
		if got, w := est.SpaceWords(), seq.SpaceWords(); got != w {
			t.Errorf("%s SpaceWords %d != sequential %d", name, got, w)
		}
	}
}

// countingOracle is the paper's oracle behind a wrapper that counts its
// ProcessBatch calls and delegates, the way a tracing or timing wrapper
// built by a custom OracleFactory does.
type countingOracle struct {
	*Oracle
	calls *atomic.Int64
}

func (o countingOracle) ProcessBatch(edges []stream.Edge, sc *BatchScratch) {
	o.calls.Add(1)
	o.Oracle.ProcessBatch(edges, sc)
}

// TestOracleBatchContract pins what the estimator owes a factory's
// oracle: its own ProcessBatch runs once per (guess, repetition) unit per
// chunk, at every parallelism, and a wrapper that delegates leaves the
// state and the answer equal to an unwrapped estimator's.
func TestOracleBatchContract(t *testing.T) {
	const m, n = 200, 3000
	rng := rand.New(rand.NewSource(4))
	edges := make([]stream.Edge, 40000)
	for i := range edges {
		edges[i] = stream.Edge{Set: uint32(rng.Intn(m)), Elem: uint32(rng.Intn(n))}
	}
	// Batches of 1000, 0, 4000 and 35000 edges: the last spans two chunks.
	batches := splitAt(edges, []int{1000, 1000, 5000})
	chunks := 0
	for _, b := range batches {
		chunks += (len(b) + maxBatchChunk - 1) / maxBatchChunk
	}
	for _, par := range []int{1, 2} {
		var calls atomic.Int64
		counting := func(d Derived, rng *rand.Rand) CoverageOracle {
			return countingOracle{NewOracle(d, rng), &calls}
		}
		wrapped, err := NewEstimator(m, n, 5, 4, Practical(), counting, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		plain, err := NewEstimator(m, n, 5, 4, Practical(), NewOracleFactory(), rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		wrapped.SetParallelism(par)
		plain.SetParallelism(par)
		for _, b := range batches {
			processEdges(wrapped, b)
			processEdges(plain, b)
		}
		wrapped.Close()
		plain.Close()
		if want := int64(len(wrapped.units()) * chunks); calls.Load() != want {
			t.Errorf("parallelism %d: %d ProcessBatch calls, want %d units × %d chunks", par, calls.Load(), len(wrapped.units()), chunks)
		}
		got, err := wrapped.AppendState(nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.AppendState(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("parallelism %d: wrapped oracles' state differs from the unwrapped estimator's", par)
		}
		if a, b := wrapped.Result(), plain.Result(); !reflect.DeepEqual(a, b) {
			t.Errorf("parallelism %d: Result %+v, unwrapped %+v", par, a, b)
		}
	}
}

// TestSmallSetDeadShortCircuit forces every layer to trip its storage cap
// and checks (a) the all-dead short-circuit leaves state untouched and
// (b) the batched path agrees with the sequential one through and past
// the die-off.
func TestSmallSetDeadShortCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := workload.PlantedSmallSets(2000, 500, 50, 0.8, rng)
	p := Practical()
	p.StoreCapFactor = 0.01 // tiny caps: layers die almost immediately
	d, err := Derive(in.System.M(), in.System.N, in.K, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	edges := collectShuffled(in, 5)

	seq := NewSmallSet(d, rand.New(rand.NewSource(21)))
	bat := NewSmallSet(d, rand.New(rand.NewSource(21)))
	for _, e := range edges {
		seq.Process(e)
	}
	sc := NewBatchScratch()
	for _, batch := range splitAt(edges, randomCuts(len(edges), 4, rng)) {
		sc.IndexColumns(columns(batch))
		bat.ProcessBatch(batch, sc)
	}
	if seq.live != 0 {
		t.Fatalf("expected all layers dead, %d live (caps too large for the test?)", seq.live)
	}
	if bat.live != 0 {
		t.Fatalf("batch path: expected all layers dead, %d live", bat.live)
	}
	if a, b := seq.SpaceWords(), bat.SpaceWords(); a != b {
		t.Errorf("SpaceWords: sequential %d != batch %d", a, b)
	}
	if a, b := seq.Estimate(), bat.Estimate(); !reflect.DeepEqual(a, b) {
		t.Errorf("Estimate: %+v != %+v", a, b)
	}
	// With everything dead, further edges must be no-ops on both paths.
	before := seq.SpaceWords()
	for _, e := range edges[:100] {
		seq.Process(e)
	}
	sc.IndexColumns(columns(edges[:100]))
	bat.ProcessBatch(edges[:100], sc)
	if seq.SpaceWords() != before || bat.SpaceWords() != before {
		t.Errorf("dead SmallSet grew: seq %d bat %d want %d", seq.SpaceWords(), bat.SpaceWords(), before)
	}
}

// TestSmallSetLiveCountMerge checks the live counter survives merging in
// dead layers (merge-safety of the short-circuit).
func TestSmallSetLiveCountMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := workload.PlantedSmallSets(2000, 500, 50, 0.8, rng)
	p := Practical()
	p.StoreCapFactor = 0.01
	d, err := Derive(in.System.M(), in.System.N, in.K, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	edges := collectShuffled(in, 6)

	a := NewSmallSet(d, rand.New(rand.NewSource(31)))
	b := NewSmallSet(d, rand.New(rand.NewSource(31)))
	for _, e := range edges {
		b.Process(e)
	}
	if b.live != 0 {
		t.Fatalf("shard b should be fully dead, %d live", b.live)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.live != 0 {
		t.Errorf("merged live count %d, want 0", a.live)
	}
	// Short-circuit must now hold on the merged structure too.
	before := a.SpaceWords()
	for _, e := range edges[:50] {
		a.Process(e)
	}
	if a.SpaceWords() != before {
		t.Errorf("merged-dead SmallSet grew from %d to %d", before, a.SpaceWords())
	}
}
