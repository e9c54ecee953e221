package streamcover

// Hot-path benchmarks: a Process call per edge vs kcoverd-sized batches on
// the default kcovergen workload (planted, n=20000 m=2000 k=40 frac=0.8,
// estimator alpha 4 — the same instance `kcovergen | kcover` processes out
// of the box). Every benchmark streams into a pre-warmed estimator, so they
// measure steady-state ingest cost, not sketch construction. The headline
// numbers live in BENCH_hotpath.json; regenerate with
//
//	go test -run=NONE -bench='ProcessEdge$|ProcessBatch$|ProcessBatchParallel' -benchtime=2s -benchmem .
//
// A pass over the stream takes 40–400 ms here, so a count-based
// -benchtime of a few passes is too short to average out the host's
// drift; 2s gives tens of passes per run.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"streamcover/internal/stream"
	"streamcover/internal/workload"
)

// hotpathBatchSize matches the kcoverd client's default ingest batch.
const hotpathBatchSize = 8192

// hotpathStream builds the default kcovergen planted instance in shuffled
// arrival order and an estimator already warmed on one full pass (steady
// state: samples taken, layers routed, maps at working size).
func hotpathStream(b *testing.B) ([]Edge, *Estimator) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	in := workload.PlantedCover(20000, 2000, 40, 0.8, 5, rng)
	raw := stream.Linearize(in.System, stream.Shuffled, rng).Edges()
	edges := make([]Edge, len(raw))
	for i, e := range raw {
		edges[i] = Edge{Set: e.Set, Elem: e.Elem}
	}
	est, err := NewEstimator(in.System.M(), in.System.N, in.K, 4, WithSeed(7))
	if err != nil {
		b.Fatal(err)
	}
	if err := est.ProcessBatch(edges); err != nil {
		b.Fatal(err)
	}
	return edges, est
}

// BenchmarkProcessEdge streams the edges one Process call at a time:
// Process validates and buffers each edge and feeds every processRun of
// them to the batch path.
func BenchmarkProcessEdge(b *testing.B) {
	edges, est := hotpathStream(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range edges {
			if err := est.Process(e); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

// BenchmarkProcessBatchParallel scales the batch engine across worker
// counts on one estimator: the (guess, repetition) oracle units are
// fanned over the persistent pool with a shared per-chunk prepass. The
// workers=1 case is the sequential path (no helper goroutines) and the
// reference for engine overhead; on a single-CPU host the higher counts
// measure overhead only, on multi-core they measure scaling.
func BenchmarkProcessBatchParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			edges, est := hotpathStream(b)
			est.SetParallelism(workers)
			defer est.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for off := 0; off < len(edges); off += hotpathBatchSize {
					end := off + hotpathBatchSize
					if end > len(edges) {
						end = len(edges)
					}
					if err := est.ProcessBatch(edges[off:end]); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(len(edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
		})
	}
}

// BenchmarkProcessBatch streams the same edges through the memoized batch
// path in kcoverd-sized batches.
func BenchmarkProcessBatch(b *testing.B) {
	edges, est := hotpathStream(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for off := 0; off < len(edges); off += hotpathBatchSize {
			end := off + hotpathBatchSize
			if end > len(edges) {
				end = len(edges)
			}
			if err := est.ProcessBatch(edges[off:end]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}
