package server_test

import (
	"context"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"streamcover"
	"streamcover/internal/client"
	"streamcover/internal/server"
	"streamcover/internal/wire"
)

// BenchmarkServerIngest measures client→server edge throughput over
// localhost: the full path of columnar batch encode, framed write, decode,
// queue dispatch and the session estimator's ProcessColumns, with
// pipelined acks. The estimator's batch engine fans out at GOMAXPROCS, so
// running under different GOMAXPROCS settings gives the scaling curve.
//
//	go test -run=NONE -bench=ServerIngest -benchtime=3x ./internal/server/
func BenchmarkServerIngest(b *testing.B) {
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
	c, err := client.Dial(s.TCPAddr().String(), client.WithBatchSize(8192))
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

// BenchmarkCreateSession measures one create in paced-tenants' shape
// (m=60, n=500, k=5, α=4) on a real data dir with fsync on: the fresh
// estimator, the session directory and WAL, and the first checkpoint's
// write, fsyncs and rename. Each session is deleted with the timer
// stopped, so the heap holds one session at a time.
//
//	go test -run=NONE -bench=CreateSession -benchtime=200x ./internal/server/
func BenchmarkCreateSession(b *testing.B) {
	s := server.New(server.Config{DataDir: b.TempDir(), CheckpointEvery: -1})
	defer s.Abort()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := "tenant-" + strconv.Itoa(i)
		if err := s.CreateSession(wire.Create{Name: name, M: 60, N: 500, K: 5, Alpha: 4, Seed: 1}); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := s.CloseSession(name); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
