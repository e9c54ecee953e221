package expt

import (
	"math/rand"

	"streamcover/internal/core"
	"streamcover/internal/stream"
	"streamcover/internal/workload"
)

// DistributedMerge is experiment E22: the estimator over a stream
// partitioned across w workers and merged, compared with one estimator
// over the whole stream. Agreement stays near 100% across shard counts —
// the mergeability the composable-sketch design buys.
func DistributedMerge(seed int64) (*Table, error) {
	t := &Table{
		ID:     "E22",
		Title:  "Distributed shard-and-merge (extension)",
		Note:   "planted m=1000 n=10000 k=20 alpha=4; round-robin edge sharding",
		Header: []string{"shards", "whole-stream estimate", "merged estimate", "agreement", "reported cover (merged)"},
	}
	rng := rand.New(rand.NewSource(seed))
	in := workload.PlantedCover(10000, 1000, 20, 0.8, 5, rng)
	edges := stream.Linearize(in.System, stream.Shuffled, rng).Edges()
	build := func() (*core.Estimator, error) {
		return core.NewEstimator(in.System.M(), in.System.N, in.K, 4, core.Practical(),
			core.NewOracleFactory(), rand.New(rand.NewSource(seed+11)))
	}
	whole, err := build()
	if err != nil {
		return nil, err
	}
	feed(whole, edges)
	wv := whole.Result().Value
	for _, shards := range []int{2, 4, 8} {
		parts := make([]*core.Estimator, shards)
		for i := range parts {
			if parts[i], err = build(); err != nil {
				return nil, err
			}
		}
		shard := make([][]stream.Edge, shards)
		for i, e := range edges {
			shard[i%shards] = append(shard[i%shards], e)
		}
		for i, part := range parts {
			feed(part, shard[i])
		}
		for i := 1; i < shards; i++ {
			if err := parts[0].Merge(parts[i]); err != nil {
				return nil, err
			}
		}
		r := parts[0].Result()
		agree := 0.0
		if wv > 0 && r.Value > 0 {
			agree = r.Value / wv
			if agree > 1 {
				agree = wv / r.Value
			}
		}
		cover := 0
		if len(r.SetIDs) > 0 {
			ids := make([]int, len(r.SetIDs))
			for i, id := range r.SetIDs {
				ids[i] = int(id)
			}
			cover = in.System.Coverage(ids)
		}
		t.AddRow(shards, wv, r.Value, agree, cover)
	}
	return t, nil
}
