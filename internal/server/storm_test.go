package server_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"streamcover/internal/client"
	"streamcover/internal/fault"
	"streamcover/internal/server"
)

// TestCrashStormSoak is the randomized robustness soak: a seeded loop of
// injected durability faults (fsync errors, write errors, disk-budget
// exhaustion with torn writes) interleaved with SIGKILL-style crashes
// (Abort, no checkpoint, no drain) and restarts on the same address,
// while a single reconnecting client streams the whole edge set through
// the chaos. The invariants at the end are absolute:
//
//   - exactly-once ingest: the final edge count equals the input exactly
//     (zero acked-then-lost batches, zero duplicate applies), and
//   - bit-identical state: the final estimate matches a fault-free
//     reference run byte for byte (coverage, set IDs, space).
//
// The seed makes a failure reproducible: every fault window, crash point
// and chunk boundary derives from it.
func TestCrashStormSoak(t *testing.T) {
	const cycles = 24
	inj := fault.NewInjector(nil)
	cfg := server.Config{
		QueueDepth: 8,
		DataDir:    t.TempDir(), CheckpointEvery: -1,
		FS:       inj,
		RetryMin: 2 * time.Millisecond, RetryMax: 20 * time.Millisecond,
	}
	edges := durEdges(21, cycles*1000)
	rng := rand.New(rand.NewSource(21))

	s := startDurServer(t, cfg, "127.0.0.1:0")
	addr := s.TCPAddr().String()
	defer func() {
		inj.Clear()
		s.Abort()
	}()
	c := dialDur(t, addr,
		client.WithBatchSize(250), client.WithMaxPending(4),
		client.WithReconnect(200), client.WithBackoff(2*time.Millisecond, 20*time.Millisecond),
		client.WithOpTimeout(30*time.Second))
	sess := createDur(t, c, "storm")

	chunk := len(edges) / cycles
	crashes, faults := 0, 0
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
			// Bound the fault window on a timer, independent of how long
			// Send blocks: a disk that stays full forever would (rightly)
			// exhaust the client's retry budget — the storm models faults
			// that clear, like space being freed or an fsync blip passing.
			clearTimer = time.AfterFunc(time.Duration(5+rng.Intn(40))*time.Millisecond, inj.Clear)
		}
		if err := sess.Send(edges[cycle*chunk : (cycle+1)*chunk]); err != nil {
			t.Fatalf("cycle %d: send: %v (degraded=%d diskfull=%d busy=%d recov=%d)", cycle, err,
				s.Metrics().DegradedSessions.Load(), s.Metrics().DiskFullSessions.Load(),
				s.Metrics().BusyRejects.Load(), s.Metrics().DurabilityRecoveries.Load())
		}
		t.Logf("cycle %d: degraded=%d diskfull=%d busy=%d recov=%d walfail=%d ckptfail=%d", cycle,
			s.Metrics().DegradedSessions.Load(), s.Metrics().DiskFullSessions.Load(),
			s.Metrics().BusyRejects.Load(), s.Metrics().DurabilityRecoveries.Load(),
			s.Metrics().WALAppendFailures.Load(), s.Metrics().CheckpointFailures.Load())
		if rng.Intn(2) == 0 {
			// Close the fault window, then barrier: every batch sent so
			// far must be durably applied before the next cycle.
			inj.Clear()
			if err := sess.Flush(); err != nil {
				t.Fatalf("cycle %d: flush: %v", cycle, err)
			}
		} else {
			// SIGKILL-style crash with batches (and possibly a degraded
			// session) in flight; the client rides through the restart and
			// replays everything unacknowledged.
			inj.Clear()
			s.Abort()
			s = startDurServer(t, cfg, addr)
			crashes++
		}
	}
	if crashes < 5 || faults < 5 {
		t.Fatalf("storm too tame for this seed: %d crashes, %d fault windows", crashes, faults)
	}
	if err := sess.Flush(); err != nil {
		t.Fatalf("final flush: %v", err)
	}

	// Graceful shutdown, then one more recovery: the state that survives
	// the storm must be bit-identical to a run that never saw a fault.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	s = startDurServer(t, cfg, addr)
	got, err := dialDur(t, addr).Session("storm").Query()
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, got, referenceResult(t, edges), "post-storm estimate")
}
