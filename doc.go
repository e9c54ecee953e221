// Package streamcover is a single-pass streaming library for the maximum
// k-coverage problem in the general edge-arrival model, implementing
//
//	Piotr Indyk and Ali Vakilian.
//	"Tight Trade-offs for the Maximum k-Coverage Problem in the General
//	Streaming Model." PODS 2019.
//
// Given a stream of (set, element) pairs in arbitrary order — a set's
// elements interleaved with every other set's — the library estimates the
// largest coverage achievable by k sets within an approximation factor α,
// and reports k witnessing sets, in Õ(m/α²+ k) space (m = number of sets).
// That trade-off is optimal: the paper proves a matching Ω(m/α²) lower
// bound, reproduced in this repository's experiment suite.
//
// # Quick start
//
//	est, err := streamcover.NewEstimator(m, n, k, alpha)
//	if err != nil { ... }
//	defer est.Close()
//	for _, e := range edges {            // single pass, any order
//		est.Process(streamcover.Edge{Set: e.Set, Elem: e.Elem})
//	}
//	res := est.Result()
//	// res.Coverage ∈ [OPT/Õ(α), OPT] w.h.p.; res.SetIDs ⊆ [m] backs it.
//
// The estimator is one-shot: build, stream once, read the result.
// All randomness derives from the configurable seed, so runs are
// reproducible.
//
// Every ingest call feeds one batched path. Process buffers its edges
// and hands them over in fixed runs, and every call that reads or moves
// state (Result, SpaceWords, SpaceBreakdown, Encode, Clone, Merge, Close)
// flushes the buffer first, so the answer equals that of one ProcessAll
// over the same edges. Like ProcessAll, Process runs on the estimator's
// batch-engine workers (GOMAXPROCS by default, see WithParallelism), and
// Close stops them.
//
// See DESIGN.md for the algorithm inventory and EXPERIMENTS.md for the
// reproduction of the paper's complexity table and theorems.
package streamcover
