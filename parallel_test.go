package streamcover

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
)

// feedRandomBatches streams edges into est through ProcessBatch in
// randomly sized batches (including tiny ones and ones crossing the
// engine's internal chunk boundary), driven by rng.
func feedRandomBatches(t *testing.T, est *Estimator, edges []Edge, rng *rand.Rand) {
	t.Helper()
	for off := 0; off < len(edges); {
		sz := 1 + rng.Intn(1<<uint(2+rng.Intn(14))) // 1 .. ~16k, log-uniform-ish
		if off+sz > len(edges) {
			sz = len(edges) - off
		}
		if err := est.ProcessBatch(edges[off : off+sz]); err != nil {
			t.Fatal(err)
		}
		off += sz
	}
}

// TestParallelBatchEquivalence is the engine's equivalence suite: the
// parallel ProcessBatch must leave the estimator bit-for-bit identical to
// the sequential one — compared via Encode, which captures every sketch
// bit — across worker counts, random batch splits, and a mid-stream
// parallelism change. Run under -race in CI, this also polices the
// engine's prepass sharing and work-stealing handshake.
func TestParallelBatchEquivalence(t *testing.T) {
	edges := plantedEdges(400, 4000, 8, 3200, 9)
	build := func(workers int) *Estimator {
		est, err := NewEstimator(400, 4000, 8, 4, WithSeed(21), WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		return est
	}

	ref := build(1)
	feedRandomBatches(t, ref, edges, rand.New(rand.NewSource(100)))
	want, err := ref.Encode()
	if err != nil {
		t.Fatal(err)
	}

	workerCounts := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	for _, w := range workerCounts {
		est := build(w)
		defer est.Close()
		// A different split proves batch boundaries don't matter either.
		feedRandomBatches(t, est, edges, rand.New(rand.NewSource(int64(200+w))))
		got, err := est.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: parallel ProcessBatch state diverged from sequential", w)
		}
	}

	// Changing parallelism mid-stream (engine resize) must not change
	// results either.
	est := build(1)
	defer est.Close()
	half := len(edges) / 2
	feed := rand.New(rand.NewSource(300))
	feedRandomBatches(t, est, edges[:half], feed)
	est.SetParallelism(4)
	feedRandomBatches(t, est, edges[half:], feed)
	est.SetParallelism(2)
	got, err := est.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("mid-stream SetParallelism diverged from sequential")
	}
}

// TestParallelBatchEngineRelease checks Close releases the helper
// goroutines and that the estimator keeps working afterwards (the engine
// restarts lazily).
func TestParallelBatchEngineRelease(t *testing.T) {
	edges := plantedEdges(200, 2000, 5, 1500, 3)
	est, err := NewEstimator(200, 2000, 5, 4, WithSeed(5), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := est.ProcessBatch(edges); err != nil {
		t.Fatal(err)
	}
	est.Close()
	if err := est.ProcessBatch(edges); err != nil { // engine restarts lazily
		t.Fatal(err)
	}
	got, err := est.Encode()
	if err != nil {
		t.Fatal(err)
	}

	ref, err := NewEstimator(200, 2000, 5, 4, WithSeed(5), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := ref.ProcessBatch(edges); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ref.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("state after Close+reuse diverged from sequential double feed")
	}
	est.Close()
	est.Close() // idempotent
}

// TestParallelProcessesValidPrefix checks that ProcessAll on the batch
// engine keeps its valid-prefix semantics: after SetParallelism(2), an
// out-of-range edge at index i makes ProcessAll return an error after
// processing the i valid edges before it, leaving the edge count and
// encoding of a one-worker ProcessAll.
func TestParallelProcessesValidPrefix(t *testing.T) {
	edges := plantedEdges(400, 4000, 8, 3200, 9)
	const i = 1500
	for _, bad := range []Edge{{Set: 400, Elem: 0}, {Set: 0, Elem: 4000}} {
		in := append(append(append([]Edge(nil), edges[:i]...), bad), edges[i:]...)
		all, err := NewEstimator(400, 4000, 8, 4, WithSeed(21), WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		par, err := NewEstimator(400, 4000, 8, 4, WithSeed(21), WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		defer par.Close()
		if err := all.ProcessAll(in); err == nil {
			t.Fatalf("%+v: ProcessAll accepted an out-of-range edge", bad)
		}
		par.SetParallelism(2)
		if err := par.ProcessAll(in); err == nil {
			t.Fatalf("%+v: ProcessAll on 2 workers accepted an out-of-range edge", bad)
		}
		if all.Edges() != i || par.Edges() != all.Edges() {
			t.Fatalf("%+v: ProcessAll consumed %d edges, on 2 workers %d, want %d", bad, all.Edges(), par.Edges(), i)
		}
		want, err := all.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%+v: state on 2 workers differs from one worker's", bad)
		}
	}
}
