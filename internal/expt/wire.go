package expt

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"streamcover"
	"streamcover/internal/client"
	"streamcover/internal/server"
	"streamcover/internal/stream"
	"streamcover/internal/workload"
)

// WireIngest (E23) runs the default planted instance end-to-end through a
// loopback kcoverd — client columnar batch encode, framed TCP, server
// decode, estimate — and reports throughput next to the answer. The
// estimate must be bit-identical to the in-process reference: the wire
// buys speed, never accuracy. Throughput is timed from the first send to
// the last ack, and kcoverd acks a batch once it is queued, so it covers
// encode, loopback TCP, decode and enqueue but not the estimator (see
// BENCH_hotpath.json for the sustained server rate).
func WireIngest(seed int64) (*Table, error) {
	const (
		n, m, k = 20000, 2000, 40
		frac    = 0.8
		decoy   = 5
		alpha   = 4.0
	)
	rng := rand.New(rand.NewSource(seed))
	in := workload.PlantedCover(n, m, k, frac, decoy, rng)
	raw := stream.Linearize(in.System, stream.Shuffled, rng).Edges()
	edges := make([]streamcover.Edge, len(raw))
	for i, e := range raw {
		edges[i] = streamcover.Edge{Set: e.Set, Elem: e.Elem}
	}

	ref, err := streamcover.NewEstimator(in.System.M(), in.System.N, in.K, alpha, streamcover.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	if err := ref.ProcessBatch(edges); err != nil {
		return nil, err
	}
	refRes := ref.Result()

	eps, res, err := wireIngestOnce(in.System.M(), in.System.N, in.K, alpha, seed, edges)
	if err != nil {
		return nil, err
	}
	if res.Coverage != refRes.Coverage || res.Feasible != refRes.Feasible {
		return nil, fmt.Errorf("estimate (%v, %v) diverged from in-process reference (%v, %v)",
			res.Coverage, res.Feasible, refRes.Coverage, refRes.Feasible)
	}
	t := &Table{
		ID:     "E23",
		Title:  "wire-ingest: columnar end-to-end",
		Note:   fmt.Sprintf("planted n=%d m=%d k=%d, %d edges over loopback TCP; the estimate must match the in-process reference bit-for-bit", n, m, k, len(edges)),
		Header: []string{"edges/s", "coverage", "feasible", "matches-ref"},
	}
	t.AddRow(float64(int64(eps)), res.Coverage, res.Feasible, true)
	return t, nil
}

func wireIngestOnce(m, n, k int, alpha float64, seed int64, edges []streamcover.Edge) (float64, client.Result, error) {
	s := server.New(server.Config{})
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		return 0, client.Result{}, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	c, err := client.Dial(s.TCPAddr().String(), client.WithBatchSize(8192))
	if err != nil {
		return 0, client.Result{}, err
	}
	defer c.Close()
	sess, err := c.Create("e23", m, n, k, alpha, seed)
	if err != nil {
		return 0, client.Result{}, err
	}
	start := time.Now()
	if err := sess.Send(edges); err != nil {
		return 0, client.Result{}, err
	}
	if err := sess.Flush(); err != nil {
		return 0, client.Result{}, err
	}
	eps := float64(len(edges)) / time.Since(start).Seconds()
	res, err := sess.Query()
	return eps, res, err
}
