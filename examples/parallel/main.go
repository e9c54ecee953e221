// Parallel processing demo: the estimator's coverage-guess ladder is
// embarrassingly parallel, and the batch engine (WithParallelism) fans it
// across workers with bit-for-bit identical results. This example times
// the same stream on one worker and on one per CPU, verifies the outputs
// match, and prints the per-component space breakdown.
//
//	go run ./examples/parallel
package main

import (
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"streamcover"
)

func main() {
	const (
		m, n, k = 2000, 20000, 40
		opt     = 16000
		alpha   = 4.0
	)
	rng := rand.New(rand.NewSource(13))
	var edges []streamcover.Edge
	for i := 0; i < k; i++ {
		for e := i * opt / k; e < (i+1)*opt/k; e++ {
			edges = append(edges, streamcover.Edge{Set: uint32(i), Elem: uint32(e)})
		}
	}
	for s := k; s < m; s++ {
		for d := 0; d < 4; d++ {
			edges = append(edges, streamcover.Edge{Set: uint32(s), Elem: uint32(rng.Intn(opt))})
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })

	run := func(workers int) (streamcover.Result, time.Duration, map[string]int) {
		est, err := streamcover.NewEstimator(m, n, k, alpha, streamcover.WithSeed(21), streamcover.WithParallelism(workers))
		if err != nil {
			log.Fatal(err)
		}
		defer est.Close()
		start := time.Now()
		if err := est.ProcessAll(edges); err != nil {
			log.Fatal(err)
		}
		return est.Result(), time.Since(start), est.SpaceBreakdown()
	}

	seqRes, seqTime, breakdown := run(1)
	workers := runtime.NumCPU()
	parRes, parTime, _ := run(workers)

	fmt.Printf("stream: %d edges, m=%d, k=%d, alpha=%.0f\n", len(edges), m, k, alpha)
	fmt.Printf("sequential: estimate %.0f in %v\n", seqRes.Coverage, seqTime.Round(time.Millisecond))
	fmt.Printf("%d workers: estimate %.0f in %v (identical: %v)\n",
		workers, parRes.Coverage, parTime.Round(time.Millisecond),
		seqRes.Coverage == parRes.Coverage)
	fmt.Println("space breakdown (words):")
	keys := make([]string, 0, len(breakdown))
	for part := range breakdown {
		keys = append(keys, part)
	}
	sort.Strings(keys)
	for _, part := range keys {
		fmt.Printf("  %-12s %d\n", part, breakdown[part])
	}
}
