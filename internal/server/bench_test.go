package server_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"streamcover"
	"streamcover/internal/client"
	"streamcover/internal/server"
)

// BenchmarkServerIngest measures client→server edge throughput over
// localhost: the full path of batch encode, framed write, decode, queue
// dispatch and the session estimator's ProcessColumns, with pipelined
// acks. Sub-benchmarks cross the wire layout (columnar MKC2 default vs
// legacy row MKC1). The estimator's batch engine fans out at GOMAXPROCS,
// so running under different GOMAXPROCS settings gives the scaling curve.
//
//	go test -run=NONE -bench=ServerIngest -benchtime=3x ./internal/server/
func BenchmarkServerIngest(b *testing.B) {
	wires := []struct {
		name string
		opts []client.Option
	}{
		{"columnar", nil},
		{"row", []client.Option{client.WithRowWire()}},
	}
	for _, w := range wires {
		b.Run("wire="+w.name, func(b *testing.B) {
			benchServerIngest(b, w.opts)
		})
	}
}

func benchServerIngest(b *testing.B, opts []client.Option) {
	const (
		m, n, k = 2000, 100000, 40
		alpha   = 8.0
	)
	s := server.New(server.Config{})
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	c, err := client.Dial(s.TCPAddr().String(),
		append([]client.Option{client.WithBatchSize(8192)}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Create("bench", m, n, k, alpha, 1)
	if err != nil {
		b.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	chunk := make([]streamcover.Edge, 1<<16)
	for i := range chunk {
		chunk[i] = streamcover.Edge{Set: uint32(rng.Intn(m)), Elem: uint32(rng.Intn(n))}
	}

	b.ReportAllocs()
	b.ResetTimer()
	sent := 0
	for sent < b.N {
		batch := chunk
		if rem := b.N - sent; rem < len(batch) {
			batch = batch[:rem]
		}
		if err := sess.Send(batch); err != nil {
			b.Fatal(err)
		}
		sent += len(batch)
	}
	if err := sess.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}
