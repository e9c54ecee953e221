package server_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"streamcover"
	"streamcover/internal/client"
	"streamcover/internal/fault"
	"streamcover/internal/server"
)

// TestCrashStormSoak is the randomized robustness soak: a seeded loop of
// injected durability faults (fsync errors, write errors, disk-budget
// exhaustion with torn writes) interleaved with SIGKILL-style crashes
// (Abort, no checkpoint, no drain) and restarts on the same address,
// while a single reconnecting client streams whole edge sets through the
// chaos. The evicting case adds a 1-byte memory budget and a second
// session, so every cycle also evicts, rehydrates and queries across the
// faults and crashes. The invariants at the end are absolute:
//
//   - exactly-once ingest: each session's final edge count equals its
//     input exactly (zero acked-then-lost batches, zero duplicate
//     applies), and
//   - bit-identical state: each final estimate matches a fault-free
//     reference run byte for byte (coverage, set IDs, space).
//
// Every operation has a deadline, so a lifecycle livelock fails the soak
// instead of hanging it. The seed makes a failure reproducible: every
// fault window, crash point and chunk boundary derives from it.
func TestCrashStormSoak(t *testing.T) {
	for _, tc := range []struct {
		name     string
		seed     int64
		sessions []string
		chunk    int   // edges per session per cycle
		batch    int   // client batch size
		budget   int64 // Config.MemBudget
	}{
		{name: "single", seed: 21, sessions: []string{"storm"}, chunk: 1000, batch: 250},
		{name: "evicting", seed: 21, sessions: []string{"storm-a", "storm-b"}, chunk: 500, batch: 125, budget: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const cycles = 24
			const opDeadline = 60 * time.Second
			inj := fault.NewInjector(nil)
			cfg := server.Config{
				QueueDepth: 8,
				DataDir:    t.TempDir(), CheckpointEvery: -1,
				FS:       inj,
				RetryMin: 2 * time.Millisecond, RetryMax: 20 * time.Millisecond,
				MemBudget: tc.budget,
			}
			edges := make([][]streamcover.Edge, len(tc.sessions))
			for i := range edges {
				edges[i] = durEdges(tc.seed+int64(i), cycles*tc.chunk)
			}
			rng := rand.New(rand.NewSource(tc.seed))

			// within runs op under the soak's per-operation deadline.
			within := func(what string, op func() error) {
				t.Helper()
				done := make(chan error, 1)
				go func() { done <- op() }()
				select {
				case err := <-done:
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
				case <-time.After(opDeadline):
					buf := make([]byte, 1<<20)
					t.Fatalf("%s: no progress in %v\n%s", what, opDeadline, buf[:runtime.Stack(buf, true)])
				}
			}

			s := startDurServer(t, cfg, "127.0.0.1:0")
			addr := s.TCPAddr().String()
			defer func() {
				inj.Clear()
				s.Abort()
			}()
			c := dialDur(t, addr,
				client.WithBatchSize(tc.batch), client.WithMaxPending(4),
				client.WithReconnect(200), client.WithBackoff(2*time.Millisecond, 20*time.Millisecond),
				client.WithOpTimeout(30*time.Second))
			sessions := make([]*client.Session, len(tc.sessions))
			for i, name := range tc.sessions {
				sessions[i] = createDur(t, c, name)
			}

			crashes, faults := 0, 0
			var evictions, rehydrations int64
			tally := func() {
				evictions += s.Metrics().EvictionsTotal.Load()
				rehydrations += s.Metrics().RehydrateHist.Count()
			}
			var clearTimer *time.Timer
			defer func() {
				if clearTimer != nil {
					clearTimer.Stop()
				}
			}()
			for cycle := 0; cycle < cycles; cycle++ {
				if clearTimer != nil {
					clearTimer.Stop() // a stale timer must not shorten this cycle's window
				}
				armed := true
				switch rng.Intn(4) {
				case 0:
					inj.FailSyncs(1+rng.Intn(3), nil)
				case 1:
					inj.FailWrites(1+rng.Intn(2), nil)
				case 2:
					inj.SetDiskBudget(int64(64 + rng.Intn(2048)))
				case 3:
					// Clean cycle: chaos comes from the crash half below.
					armed = false
				}
				if armed {
					faults++
					// Bound the fault window on a timer, independent of how
					// long Send blocks: a disk that stays full forever would
					// (rightly) exhaust the client's retry budget — the storm
					// models faults that clear, like space being freed or an
					// fsync blip passing.
					clearTimer = time.AfterFunc(time.Duration(5+rng.Intn(40))*time.Millisecond, inj.Clear)
				}
				for i, sess := range sessions {
					within(fmt.Sprintf("cycle %d: send %s", cycle, tc.sessions[i]), func() error {
						return sess.Send(edges[i][cycle*tc.chunk : (cycle+1)*tc.chunk])
					})
				}
				if tc.budget > 0 {
					// The 1-byte budget evicts every session but the hottest.
					// A checkpoint may fail inside the fault window; its
					// session then degrades and recovers like any other.
					within(fmt.Sprintf("cycle %d: checkpoint", cycle), func() error {
						s.CheckpointAll()
						return nil
					})
					within(fmt.Sprintf("cycle %d: query", cycle), func() error {
						for {
							// Query retries busy answers a bounded number of
							// times and leaves the rest to the caller.
							_, err := sessions[0].Query()
							if !errors.Is(err, client.ErrServerBusy) {
								return err
							}
						}
					})
				}
				t.Logf("cycle %d: degraded=%d diskfull=%d busy=%d recov=%d walfail=%d ckptfail=%d evict=%d rehyd=%d", cycle,
					s.Metrics().DegradedSessions.Load(), s.Metrics().DiskFullSessions.Load(),
					s.Metrics().BusyRejects.Load(), s.Metrics().DurabilityRecoveries.Load(),
					s.Metrics().WALAppendFailures.Load(), s.Metrics().CheckpointFailures.Load(),
					s.Metrics().EvictionsTotal.Load(), s.Metrics().RehydrateHist.Count())
				if rng.Intn(2) == 0 {
					// Close the fault window, then barrier: every batch sent
					// so far must be durably applied before the next cycle.
					inj.Clear()
					for i, sess := range sessions {
						within(fmt.Sprintf("cycle %d: flush %s", cycle, tc.sessions[i]), sess.Flush)
					}
				} else {
					// SIGKILL-style crash with batches (and possibly a
					// degraded session) in flight; the client rides through
					// the restart and replays everything unacknowledged.
					inj.Clear()
					tally()
					within(fmt.Sprintf("cycle %d: crash", cycle), func() error {
						s.Abort()
						return nil
					})
					s = startDurServer(t, cfg, addr)
					crashes++
				}
			}
			if crashes < 5 || faults < 5 {
				t.Fatalf("storm too tame for this seed: %d crashes, %d fault windows", crashes, faults)
			}
			for i, sess := range sessions {
				within("final flush "+tc.sessions[i], sess.Flush)
			}
			tally()
			if tc.budget > 0 && (evictions == 0 || rehydrations == 0) {
				t.Fatalf("budget never bit: %d evictions, %d rehydrations", evictions, rehydrations)
			}

			// Graceful shutdown, then one more recovery: the state that
			// survives the storm must be bit-identical to a run that never
			// saw a fault.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			s = startDurServer(t, cfg, addr)
			after := dialDur(t, addr)
			for i, name := range tc.sessions {
				got, err := after.Session(name).Query()
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, got, referenceResult(t, edges[i]), "post-storm estimate of "+name)
			}
		})
	}
}
