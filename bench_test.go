package streamcover_test

// Benchmark harness: one benchmark per reproduced table/experiment (see
// DESIGN.md §4 and EXPERIMENTS.md). Each benchmark regenerates its
// experiment's table and surfaces the headline quantities as benchmark
// metrics (approximation ratio, space in words), so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's evaluation end to end. cmd/kcoverbench prints the
// same tables at full scale with human-readable formatting.

import (
	"math/rand"
	"strconv"
	"testing"

	"streamcover"
	"streamcover/internal/core"
	"streamcover/internal/expt"
	"streamcover/internal/stream"
	"streamcover/internal/workload"
)

// benchTable runs a table-producing experiment once per iteration.
func benchTable(b *testing.B, run func(seed int64) (*expt.Table, error)) *expt.Table {
	b.Helper()
	var last *expt.Table
	for i := 0; i < b.N; i++ {
		t, err := run(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	return last
}

// BenchmarkTable1 is experiment E1: the measured rows of the paper's
// Table 1 (baselines vs this paper across α).
func BenchmarkTable1(b *testing.B) {
	benchTable(b, func(seed int64) (*expt.Table, error) {
		return expt.Table1(expt.Table1Config{
			N: 10000, M: 1000, K: 20, Alphas: []float64{2, 4, 8}, Seed: seed,
		})
	})
}

// BenchmarkTradeoffSweep is experiment E2 (Theorem 3.1): space and ratio
// vs α at fixed m.
func BenchmarkTradeoffSweep(b *testing.B) {
	t := benchTable(b, func(seed int64) (*expt.Table, error) {
		return expt.TradeoffSweep(expt.TradeoffConfig{
			N: 10000, M: 2000, K: 32, Alphas: []float64{2, 4, 8, 16}, Seed: seed,
		})
	})
	reportColumn(b, t, 3, "words@alpha=16", len(t.Rows)-1)
}

// BenchmarkSpaceVsM is experiment E2b: linear-in-m scaling at fixed α.
func BenchmarkSpaceVsM(b *testing.B) {
	benchTable(b, func(seed int64) (*expt.Table, error) {
		return expt.SpaceVsM(16, 8, []int{500, 1000, 2000}, seed)
	})
}

// BenchmarkReporting is experiment E3 (Theorem 3.2): reported k-cover
// quality and the +k space term.
func BenchmarkReporting(b *testing.B) {
	benchTable(b, func(seed int64) (*expt.Table, error) {
		return expt.Reporting(expt.TradeoffConfig{
			N: 10000, M: 1000, K: 20, Alphas: []float64{4}, Seed: seed,
		})
	})
}

// BenchmarkLowerBound is experiment E4 (Theorem 3.3): DSJ hard instances,
// distinguisher success vs width, and the estimator on the reduction.
func BenchmarkLowerBound(b *testing.B) {
	benchTable(b, func(seed int64) (*expt.Table, error) {
		return expt.LowerBound(expt.LowerBoundConfig{M: 4096, R: 16, Trials: 10, Seed: seed})
	})
}

// BenchmarkUniverseReduction is experiment E5 (Lemma 3.5).
func BenchmarkUniverseReduction(b *testing.B) {
	benchTable(b, func(seed int64) (*expt.Table, error) {
		return expt.UniverseReduction(100, seed), nil
	})
}

// columnsOf splits edges into the set and element columns that
// ProcessColumns and BatchScratch.IndexColumns take.
func columnsOf(edges []stream.Edge) (sets, elems []uint32) {
	sets, elems = make([]uint32, len(edges)), make([]uint32, len(edges))
	for i, e := range edges {
		sets[i], elems[i] = e.Set, e.Elem
	}
	return sets, elems
}

// BenchmarkLargeCommon, BenchmarkLargeSet and BenchmarkSmallSet are
// experiments E6–E8: each oracle subroutine standalone on its designed
// instance family, measuring estimate quality and per-edge throughput of
// its ingest path (the stream's prepass, then one ProcessBatch).
func BenchmarkLargeCommon(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := workload.CommonHeavy(5000, 1000, 10, 200, 0.4, 2, rng)
	d, err := core.Derive(in.System.M(), in.System.N, in.K, 4, core.Practical())
	if err != nil {
		b.Fatal(err)
	}
	edges := stream.Linearize(in.System, stream.Shuffled, rng).Edges()
	sets, elems := columnsOf(edges)
	sc := core.NewBatchScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lc := core.NewLargeCommon(d, rng)
		sc.IndexColumns(sets, elems)
		lc.ProcessBatch(edges, sc)
		if _, _, ok := lc.Estimate(); !ok {
			b.Fatal("LargeCommon rejected its designed family")
		}
	}
	b.ReportMetric(float64(len(edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

func BenchmarkLargeSet(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	in := workload.PlantedLargeSets(8000, 1000, 20, 2, 0.8, rng)
	d, err := core.Derive(in.System.M(), in.System.N, in.K, 4, core.Practical())
	if err != nil {
		b.Fatal(err)
	}
	edges := stream.Linearize(in.System, stream.Shuffled, rng).Edges()
	sets, elems := columnsOf(edges)
	sc := core.NewBatchScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ls := core.NewLargeSet(d, rng)
		sc.IndexColumns(sets, elems)
		ls.ProcessBatch(edges, sc)
		if !ls.Estimate().Feasible {
			b.Fatal("LargeSet rejected its designed family")
		}
	}
	b.ReportMetric(float64(len(edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

func BenchmarkSmallSet(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	in := workload.PlantedSmallSets(8000, 2000, 200, 0.8, rng)
	d, err := core.Derive(in.System.M(), in.System.N, in.K, 4, core.Practical())
	if err != nil {
		b.Fatal(err)
	}
	edges := stream.Linearize(in.System, stream.Shuffled, rng).Edges()
	sets, elems := columnsOf(edges)
	sc := core.NewBatchScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss := core.NewSmallSet(d, rng)
		sc.IndexColumns(sets, elems)
		ss.ProcessBatch(edges, sc)
		if !ss.Estimate().Feasible {
			b.Fatal("SmallSet rejected its designed family")
		}
	}
	b.ReportMetric(float64(len(edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

// BenchmarkSetSampling is experiment E9 (Lemma 2.3 / §A.1).
func BenchmarkSetSampling(b *testing.B) {
	benchTable(b, func(seed int64) (*expt.Table, error) {
		return expt.SetSampling(seed)
	})
}

// BenchmarkElementSampling is experiment E10 (Lemma 2.5).
func BenchmarkElementSampling(b *testing.B) {
	benchTable(b, func(seed int64) (*expt.Table, error) {
		return expt.ElementSampling(seed), nil
	})
}

// BenchmarkHeavyHitters is experiment E11 (Theorem 2.10).
func BenchmarkHeavyHitters(b *testing.B) {
	benchTable(b, func(seed int64) (*expt.Table, error) {
		return expt.HeavyHittersAccuracy(seed), nil
	})
}

// BenchmarkContributing is experiment E12 (Theorem 2.11).
func BenchmarkContributing(b *testing.B) {
	benchTable(b, func(seed int64) (*expt.Table, error) {
		return expt.ContributingAccuracy(seed), nil
	})
}

// BenchmarkL0 is experiment E13 (Theorem 2.12).
func BenchmarkL0(b *testing.B) {
	benchTable(b, func(seed int64) (*expt.Table, error) {
		return expt.L0Accuracy(seed), nil
	})
}

// BenchmarkOracleDispatch is experiment E15 (Figure 2): which subroutine
// wins on which planted family.
func BenchmarkOracleDispatch(b *testing.B) {
	benchTable(b, func(seed int64) (*expt.Table, error) {
		return expt.OracleDispatch(seed)
	})
}

// BenchmarkEstimatorThroughput measures the public API's end-to-end
// per-edge cost at a representative configuration.
func BenchmarkEstimatorThroughput(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	in := workload.PlantedCover(10000, 1000, 20, 0.8, 5, rng)
	raw := stream.Linearize(in.System, stream.Shuffled, rng).Edges()
	edges := make([]streamcover.Edge, len(raw))
	for i, e := range raw {
		edges[i] = streamcover.Edge{Set: e.Set, Elem: e.Elem}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err := streamcover.NewEstimator(in.System.M(), in.System.N, in.K, 4, streamcover.WithSeed(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if err := est.ProcessAll(edges); err != nil {
			b.Fatal(err)
		}
		if !est.Result().Feasible {
			b.Fatal("infeasible")
		}
	}
	b.ReportMetric(float64(len(edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

// reportColumn surfaces one table cell as a benchmark metric.
func reportColumn(b *testing.B, t *expt.Table, col int, name string, row int) {
	b.Helper()
	if row < 0 || row >= len(t.Rows) || col >= len(t.Rows[row]) {
		return
	}
	if v, err := strconv.ParseFloat(t.Rows[row][col], 64); err == nil {
		b.ReportMetric(v, name)
	}
}

// BenchmarkSpaceComposition is experiment E16: per-subroutine space across α.
func BenchmarkSpaceComposition(b *testing.B) {
	benchTable(b, func(seed int64) (*expt.Table, error) {
		return expt.SpaceComposition(seed)
	})
}

// BenchmarkArrivalOrders is experiment E17: order invariance of ours vs
// collapse of the set-arrival baseline.
func BenchmarkArrivalOrders(b *testing.B) {
	benchTable(b, func(seed int64) (*expt.Table, error) {
		return expt.ArrivalOrderInvariance(seed)
	})
}

// BenchmarkHoldoutAblation is experiment E18: SmallSet held-out vs naive.
func BenchmarkHoldoutAblation(b *testing.B) {
	benchTable(b, func(seed int64) (*expt.Table, error) {
		return expt.HoldoutAblation(seed)
	})
}

// BenchmarkNoiseGateAblation is experiment E19: the heavy-hitter noise
// gate on the DSJ hard instances.
func BenchmarkNoiseGateAblation(b *testing.B) {
	benchTable(b, func(seed int64) (*expt.Table, error) {
		return expt.NoiseGateAblation(seed)
	})
}

// BenchmarkDistinctBackend is experiment E20: bottom-k L0 vs HyperLogLog.
func BenchmarkDistinctBackend(b *testing.B) {
	benchTable(b, func(seed int64) (*expt.Table, error) {
		return expt.DistinctBackendAblation(seed)
	})
}

// BenchmarkRepetitionBoosting is experiment E21 (Theorem 3.6's log(1/δ)
// loop).
func BenchmarkRepetitionBoosting(b *testing.B) {
	benchTable(b, func(seed int64) (*expt.Table, error) {
		return expt.RepetitionBoosting(seed)
	})
}

// BenchmarkDistributedMerge is experiment E22: shard-and-merge agreement.
func BenchmarkDistributedMerge(b *testing.B) {
	benchTable(b, func(seed int64) (*expt.Table, error) {
		return expt.DistributedMerge(seed)
	})
}

// BenchmarkEstimatorMerge measures the cost of merging two same-seed
// estimators (the distributed path's reduce step).
func BenchmarkEstimatorMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	in := workload.PlantedCover(5000, 500, 10, 0.8, 3, rng)
	var halves [2][]stream.Edge
	for j, e := range stream.Linearize(in.System, stream.Shuffled, rng).Edges() {
		halves[j%2] = append(halves[j%2], e)
	}
	leftSets, leftElems := columnsOf(halves[0])
	rightSets, rightElems := columnsOf(halves[1])
	build := func() *core.Estimator {
		e, err := core.NewEstimator(in.System.M(), in.System.N, in.K, 4, core.Practical(),
			core.NewOracleFactory(), rand.New(rand.NewSource(3)))
		if err != nil {
			b.Fatal(err)
		}
		return e
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		left, right := build(), build()
		left.ProcessColumns(leftSets, leftElems)
		right.ProcessColumns(rightSets, rightElems)
		b.StartTimer()
		if err := left.Merge(right); err != nil {
			b.Fatal(err)
		}
	}
}

// bulkShapeEstimator is bulk-ingest's estimator (m=2000, n=100000, k=40,
// α=8) after edges uniform edges fed in 8192-edge batches.
func bulkShapeEstimator(b *testing.B, edges int) *streamcover.Estimator {
	return uniformEstimator(b, 2000, 100000, edges)
}

// uniformEstimator is an estimator over m sets and n elements with k=40
// and α=8 (bulk-ingest's and crash-recover's k and α) after edges
// uniform edges fed in 8192-edge batches.
func uniformEstimator(b *testing.B, m, n, edges int) *streamcover.Estimator {
	b.Helper()
	est, err := streamcover.NewEstimator(m, n, 40, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	batch := make([]streamcover.Edge, 8192)
	for fed := 0; fed < edges; fed += len(batch) {
		for i := range batch {
			batch[i] = streamcover.Edge{Set: uint32(rng.Intn(m)), Elem: uint32(rng.Intn(n))}
		}
		if err := est.ProcessBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	return est
}

// BenchmarkEstimatorNew measures a session's construction in
// paced-tenants' shape (m=60, n=500, k=5, α=4) and bulk-ingest's; B/op
// is what a fresh estimator allocates before its first edge.
func BenchmarkEstimatorNew(b *testing.B) {
	for _, sh := range []struct {
		name    string
		m, n, k int
		alpha   float64
	}{{"paced-tenant", 60, 500, 5, 4}, {"bulk-ingest", 2000, 100000, 40, 8}} {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				est, err := streamcover.NewEstimator(sh.m, sh.n, sh.k, sh.alpha, streamcover.WithParallelism(1))
				if err != nil {
					b.Fatal(err)
				}
				est.Close()
			}
		})
	}
}

// BenchmarkEstimatorRecover measures crash recovery in crash-recover's
// shape (m=2000, n=20000, k=40, α=8): decode a checkpoint taken after
// 200k edges, then replay a 100k-edge tail in 8192-edge column batches on
// one worker, as kcoverd's WAL replay does.
func BenchmarkEstimatorRecover(b *testing.B) {
	const m, n, tail, batch = 2000, 20000, 100000, 8192
	est := uniformEstimator(b, m, n, 200000)
	blob, err := est.Encode()
	est.Close()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	sets, elems := make([]uint32, tail), make([]uint32, tail)
	for i := range sets {
		sets[i], elems[i] = uint32(rng.Intn(m)), uint32(rng.Intn(n))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := streamcover.DecodeEstimator(blob)
		if err != nil {
			b.Fatal(err)
		}
		dec.SetParallelism(1)
		for off := 0; off < tail; off += batch {
			end := min(off+batch, tail)
			if err := dec.ProcessColumns(sets[off:end], elems[off:end]); err != nil {
				b.Fatal(err)
			}
		}
		dec.Close()
	}
}

// BenchmarkEstimatorClone measures the snapshot a kcoverd checkpoint or
// /digest takes, a clone of the session's estimator, in bulk-ingest's
// shape with 200k edges preloaded. B/op is what one snapshot allocates
// before it is encoded.
func BenchmarkEstimatorClone(b *testing.B) {
	est := bulkShapeEstimator(b, 200000)
	defer est.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Clone(); err != nil {
			b.Fatal(err)
		}
	}
}

// encodeShapes are the checkpoint benchmarks' states: bulk-ingest's
// estimator as a session creates it (its initial checkpoint) and after
// 200k edges.
var encodeShapes = []struct {
	name  string
	edges int
}{{"fresh", 0}, {"200k", 200000}}

// BenchmarkEstimatorEncode measures a checkpoint's encode in bulk-ingest's
// shape; encoded-B is the blob a checkpoint writes and fsyncs.
func BenchmarkEstimatorEncode(b *testing.B) {
	for _, sh := range encodeShapes {
		b.Run(sh.name, func(b *testing.B) {
			est := bulkShapeEstimator(b, sh.edges)
			defer est.Close()
			var blob []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if blob, err = est.Encode(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(blob)), "encoded-B")
		})
	}
}

// BenchmarkEstimatorDecode measures recovery's and rehydration's decode of
// a bulk-ingest-shaped checkpoint; B/op includes the construction the
// blob is restored into.
func BenchmarkEstimatorDecode(b *testing.B) {
	for _, sh := range encodeShapes {
		b.Run(sh.name, func(b *testing.B) {
			est := bulkShapeEstimator(b, sh.edges)
			blob, err := est.Encode()
			est.Close()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dec, err := streamcover.DecodeEstimator(blob)
				if err != nil {
					b.Fatal(err)
				}
				dec.Close()
			}
			b.ReportMetric(float64(len(blob)), "encoded-B")
		})
	}
}
