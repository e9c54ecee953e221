package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"streamcover"
	"streamcover/internal/replica"
	"streamcover/internal/wire"
)

// A session is one named estimation run: one streamcover.Estimator fed by
// one apply goroutine from one bounded queue. Batches and reads — a
// query's Result, a checkpoint's or /digest's clone — share the queue, so
// a read observes every batch enqueued before it and no part of any batch
// enqueued after it. The estimator's own batch engine fans each batch
// across its (guess, repetition) oracle units, which is where the
// session's parallelism comes from. An idle session closes its estimator
// (see scratchIdleAfter), so between bursts it holds sketch state only.
//
// A session's whole state is three words: its lifecycle (hydrated,
// evicted or closed, under resMu), its cluster role (leader, fenced or
// follower, atomic) and its health (degradedErr, under fmu). Locks are
// taken in the order resMu → durability.ckptMu → durability.pmu → dmu;
// fmu is a leaf, and omu nests inside pmu's read side.
type session struct {
	name  string
	m, n  int
	k     int
	alpha float64
	seed  int64

	// resMu is the lifecycle lock. Every operation pins the session with
	// the read side for its whole duration (pin), so the queue cannot be
	// replaced or closed under a dispatch or a read; every
	// transition — eviction, rehydration, a follower bootstrap, close —
	// takes the write side and swaps the estimator and its queue wholesale
	// (setEstimator).
	resMu    sync.RWMutex
	state    lifecycle
	queue    chan applyMsg  // nil unless hydrated
	queueCap int            // capacity each new queue is built with
	applyWG  sync.WaitGroup // the apply goroutine
	metrics  *Metrics       // server-wide counters (batch latency); may be nil in tests

	dur *durability // nil without a data dir

	// Health (see degrade.go). A WAL append or checkpoint failure leaves a
	// batch applied to the estimator without being durable, so no later
	// ingest may be acknowledged — an ack promises the whole acknowledged
	// prefix survives a crash. Unlike a permanent poison, the condition is
	// repairable in place: a recovery loop, running exactly while
	// degradedErr is set, resets the WAL and re-checkpoints, then clears it.
	fmu         sync.Mutex
	degradedErr error // non-nil: ingest rejected, queries still served
	recStopped  bool  // close() ran; no new recovery loops may start
	recStop     chan struct{}
	recWG       sync.WaitGroup
	retryMin    time.Duration // first recovery backoff
	retryMax    time.Duration // backoff ceiling

	dmu   sync.Mutex
	dedup map[uint64]dedupEntry // client source → replay horizon

	// omu orders durable ingest: WAL position assignment and queue
	// dispatch are one atomic step (see logAndDispatch), so the log's
	// replay order — the only order replicas and crash recovery ever see —
	// is the order the leader's own estimator saw.
	omu sync.Mutex

	// Cluster role (see cluster.go). A session is born leader; on nodes
	// that do not lead it, the server makes it a follower and attaches an
	// applier pulling the leader's WAL. A fenced leader stops accepting
	// new writes ahead of an orderly failover: acks are durable the moment
	// they are sent, but shipping is asynchronous, so a promotion is
	// lossless only if the leader first stops acking and the chosen
	// follower drains the remaining tail.
	role    atomic.Int32 // roleLeader, roleFenced or roleFollower
	applier atomic.Pointer[replica.Applier]

	// Oversubscription (see oversub.go): the overseer may evict a hydrated
	// session down to its canonical checkpoint — apply goroutine stopped,
	// estimator freed, WAL parked — and any later operation rehydrates it.
	ovs           *overseer    // nil when the server runs without a budget
	residentBytes atomic.Int64 // residentCharge at the last checkpoint (0 while evicted)
	lastAccess    atomic.Int64 // unix nanos of the last op touch (LRU clock)
	rehydrations  atomic.Int64
	// wakers counts operations between arrival and their residency pin —
	// including the unlocked instant after a successful rehydration but
	// before the waker re-acquires the read side. Eviction refuses while
	// wakers > 0: without this, concurrent rehydrations of sibling
	// sessions under a tight budget can evict each other in that window
	// forever, a livelock in which no operation ever completes.
	wakers atomic.Int32

	edges   atomic.Int64
	batches atomic.Int64
	queries atomic.Int64
}

// lifecycle is a session's residency and open/closed state. The zero
// value (hydrated) keeps every construction path valid.
type lifecycle uint8

const (
	stateHydrated lifecycle = iota // estimator live behind its apply goroutine
	stateEvicted                   // parked at its checkpoint; the next operation rehydrates it
	stateClosed                    // closed or deleted; every operation is refused
)

// The values of session.role. A plain server's sessions are all leaders.
const (
	roleLeader   int32 = iota
	roleFenced         // frozen ahead of a failover: ingest is redirected, reads and shipping go on
	roleFollower       // mirrors a leader's WAL; takes writes only from the replication stream
)

// applyMsg is either a batch (run == nil) or a read of the estimator,
// which the apply goroutine runs in queue order: a read enqueued after a
// batch observes all of it. A batch is the dispatcher's private copy of
// its columns — parallel set-ID and element-ID slices, the exact layout
// the estimator's ProcessColumns ingests with no per-edge conversion.
type applyMsg struct {
	sets, elems []uint32
	run         func(*streamcover.Estimator)
}

// dedupEntry is one client source's replay horizon. seq is the highest
// sequence accepted from the source; done, while non-nil, is closed once
// the ingest that accepted seq has settled — made the batch durable, or
// failed and poisoned the session (failErr). A duplicate may only be
// acknowledged against a settled entry — acking against a still-in-flight
// original would promise durability the WAL has not yet delivered, and a
// crash before the original's fsync would then lose an acknowledged batch.
type dedupEntry struct {
	seq  uint64
	done chan struct{}
}

// testHookAfterAccept, when non-nil, runs on the ingest path after the
// batch is accepted (for a sequenced batch, once its dedup entry is
// published) and before the WAL append. Tests park an ingest here to
// model a batch stalled inside the group-commit fsync.
var testHookAfterAccept func(source, seq uint64)

// blankSession builds a session with no estimator; install starts one.
func blankSession(name string, m, n, k int, alpha float64, seed int64, cfg Config, metrics *Metrics) *session {
	return &session{
		name: name, m: m, n: n, k: k, alpha: alpha, seed: seed,
		metrics: metrics, dedup: make(map[uint64]dedupEntry),
		recStop: make(chan struct{}), retryMin: cfg.RetryMin, retryMax: cfg.RetryMax,
		queueCap: cfg.QueueDepth,
	}
}

// setEstimator replaces the session's estimator and its apply goroutine.
// The old queue closes and its goroutine exits after consuming what was
// already enqueued (reads included, so they are still answered),
// releasing the old estimator's engine. A non-nil est gets a fresh queue
// and goroutine; nil leaves the session without one (evicted or
// closed), and is a no-op when it already has none. The caller holds
// resMu's write side, or owns the session outright while building it.
func (s *session) setEstimator(est *streamcover.Estimator) {
	if s.queue != nil {
		close(s.queue)
		s.applyWG.Wait()
		s.queue = nil
	}
	if est != nil {
		s.queue = make(chan applyMsg, s.queueCap)
		s.applyWG.Add(1)
		go s.runApply(est, s.queue)
	}
}

// install starts est as the session's estimator, with the dedup horizons
// its state covers (none when a create built it). The one path for create,
// crash recovery, rehydration and a follower bootstrap. The caller holds
// resMu's write side, or owns the session outright.
func (s *session) install(est *streamcover.Estimator, dedup map[uint64]uint64) {
	s.dmu.Lock()
	s.dedup = make(map[uint64]dedupEntry, len(dedup))
	for src, seq := range dedup {
		s.dedup[src] = dedupEntry{seq: seq}
	}
	s.dmu.Unlock()
	// Read est before its apply goroutine owns it.
	s.edges.Store(int64(est.Edges()))
	s.setResidentBytes(residentCharge(est))
	s.setEstimator(est)
}

// scratchIdleAfter is how long an apply goroutine sits without traffic
// before it closes its estimator, dropping the batch scratch and stopping
// the engine helpers together with theirs, so an idle session holds its
// sketch state (what the memory budget charges) and nothing else. The
// delay keeps a busy session from paying that release on every
// queue-empty observation, which would reallocate the scratch and restart
// the helpers per batch.
const scratchIdleAfter = 250 * time.Millisecond

// runApply is the session's apply goroutine: it owns est, applies batches
// and runs reads in queue order, and closes est when it goes idle (the
// next batch reallocates its working memory) and when the queue closes.
func (s *session) runApply(est *streamcover.Estimator, queue <-chan applyMsg) {
	defer s.applyWG.Done()
	defer est.Close()
	idle := time.NewTimer(scratchIdleAfter)
	defer idle.Stop()
	for {
		var msg applyMsg
		select {
		case m, ok := <-queue:
			// A closed channel still drains its buffered messages first, so
			// this keeps the drain-everything-then-exit contract.
			if !ok {
				return
			}
			msg = m
		case <-idle.C:
			est.Close()
			continue // timer not reset: release once, then block on the queue
		}
		if !idle.Stop() {
			select {
			case <-idle.C:
			default:
			}
		}
		idle.Reset(scratchIdleAfter)
		if msg.run != nil {
			msg.run(est)
			continue
		}
		start := time.Now()
		// IDs were validated against the session dims at decode time, so
		// the batched ingest cannot fail here.
		est.ProcessColumns(msg.sets, msg.elems)
		if s.metrics != nil {
			s.metrics.IngestHist.Observe(time.Since(start).Nanoseconds())
		}
	}
}

// setResidentBytes records the session's resident footprint and keeps the
// overseer's global total in sync.
func (s *session) setResidentBytes(n int64) {
	old := s.residentBytes.Swap(n)
	if s.ovs != nil {
		s.ovs.residentBytes.Add(n - old)
	}
}

// residency reports the session's oversubscription state and apply-queue
// occupancy (0 unless hydrated) for /sessions and /metrics.
func (s *session) residency() (resident bool, queued int, bytes, lastAccess, rehydrations int64) {
	s.resMu.RLock()
	resident, queued = s.state == stateHydrated, len(s.queue)
	s.resMu.RUnlock()
	return resident, queued, s.residentBytes.Load(), s.lastAccess.Load(), s.rehydrations.Load()
}

// errClosed is what every operation on a closed session gets.
func (s *session) errClosed() error {
	return fmt.Errorf("server: session %q closed", s.name)
}

// pin holds the session hydrated for one operation, rehydrating it first
// when it is parked at its checkpoint. The returned release func drops
// the pin; callers must invoke it exactly once. Pinning is the read side
// of resMu, so any number of operations share a hydrated session while a
// transition (write side) waits them out.
func (s *session) pin() (func(), error) {
	s.wakers.Add(1)
	defer s.wakers.Add(-1)
	for {
		s.resMu.RLock()
		switch s.state {
		case stateHydrated:
			s.lastAccess.Store(time.Now().UnixNano())
			return s.resMu.RUnlock, nil
		case stateClosed:
			s.resMu.RUnlock()
			return nil, s.errClosed()
		}
		s.resMu.RUnlock()
		if s.ovs == nil {
			// Unreachable: only an overseer evicts. Fail loudly, not nil-deref.
			return nil, fmt.Errorf("server: session %q evicted with no overseer", s.name)
		}
		if err := s.ovs.rehydrate(s); err != nil {
			return nil, err
		}
	}
}

// logAndDispatch logs one batch and queues it for the estimator, returning
// a channel that delivers the append's durability error. The WAL position
// assignment and the dispatch happen as one atomic step under omu:
// replicas (and crash recovery) replay the log in position order, so the
// leader's own apply order must equal log order — otherwise two concurrent
// connections could interleave into the queue in one order and into the
// log in the other, and the leader's estimator bytes would diverge from
// every follower's. Only the group-commit fsync — the slow half — runs
// outside the lock, so it still overlaps the dispatch and later batches. The caller must receive from
// the channel before acknowledging (an ack still implies durability) and
// before releasing pmu (the checkpoint invariant requires no in-flight
// append under pmu.Lock).
func (s *session) logAndDispatch(d *durability, rec []byte, sets, elems []uint32) <-chan error {
	ch := make(chan error, 1)
	s.omu.Lock()
	_, wait, err := d.wal.AppendStart(rec)
	// Dispatch even when the write failed: the degrade path treats the
	// batch as applied-but-not-durable either way, and recovery's fresh
	// checkpoint re-anchors the log at the applied state.
	s.dispatch(sets, elems)
	s.omu.Unlock()
	if err != nil {
		ch <- err
		return ch
	}
	go func() { ch <- wait() }()
	return ch
}

// ingestSeq logs one validated batch durably and queues it, overlapping
// the WAL fsync with the apply. The return (and so the ack) waits for the
// append's fsync and for the batch's enqueue, not for its apply: a later
// query still sees the batch, because the query's Result rides the same
// queue behind it. sets/elems are the batch's columns; rec is the WAL
// record for the batch (type byte + wire payload), ignored when the
// session has no durability.
//
// It is the exactly-once path: the batch is dropped if this (source, seq)
// was already applied, so the ack promises the batch survives a crash and
// a client replaying unacknowledged batches after a reconnect cannot
// double-count. Source and seq are nonzero (the wire decoder rejects
// zero). Returns whether the batch was applied (false: recognized
// duplicate, still acknowledged).
//
// Accepted batches are serialized per source: a second ingest for the
// same source — the next sequence, or a duplicate resent over a fresh
// connection while the original is still inside the group-commit fsync —
// waits until the previous one settles. A duplicate's ack therefore never
// outruns the durability of the batch it vouches for, which is exactly
// the reconnect-then-crash window the sequence numbers exist to cover.
//
// On append failure the batch has been dispatched, so instead of rolling
// back, the accepted horizon is KEPT (a resend of this seq must not be
// applied twice) and the session degrades — the resend is answered with
// the typed transient error rather than a false durability ack, and
// recovery's fresh checkpoint makes the applied batch durable before
// ingest resumes.
func (s *session) ingestSeq(source, seq uint64, rec []byte, sets, elems []uint32) (bool, error) {
	release, err := s.pin()
	if err != nil {
		return false, err
	}
	defer release()
	d := s.dur
	if d != nil {
		d.pmu.RLock()
		defer d.pmu.RUnlock()
	}
	var done chan struct{}
	for {
		if d != nil {
			// Checked inside the loop: a waiter parked on done must see the
			// failure the ingest it waited on just recorded (degrade() runs
			// before close(done)), not ack a duplicate of a batch that
			// never became durable.
			if err := s.degraded(); err != nil {
				return false, err
			}
		}
		s.dmu.Lock()
		prev := s.dedup[source]
		if prev.done != nil {
			// The ingest that accepted prev.seq is still logging; wait for
			// it to settle, then re-evaluate.
			wait := prev.done
			s.dmu.Unlock()
			<-wait
			continue
		}
		if seq <= prev.seq {
			s.dmu.Unlock()
			return false, nil
		}
		if d != nil {
			done = make(chan struct{})
		}
		s.dedup[source] = dedupEntry{seq: seq, done: done}
		s.dmu.Unlock()
		break
	}
	if hook := testHookAfterAccept; hook != nil {
		hook(source, seq)
	}
	if d == nil {
		s.dispatch(sets, elems)
		return true, nil
	}
	err = <-s.logAndDispatch(d, rec, sets, elems)
	if err != nil {
		// Applied but not durable: count the ingest here (the handler
		// sees an error and will not) and degrade.
		if s.metrics != nil {
			s.metrics.WALAppendFailures.Add(1)
			s.metrics.EdgesIngested.Add(int64(len(sets)))
			s.metrics.Batches.Add(1)
		}
		s.degrade(err)
	}
	if done != nil {
		// Settle the entry at the accepted horizon either way — the batch
		// was applied. The entry is still ours (anyone else is parked on
		// done), so this cannot clobber a concurrent publish.
		s.dmu.Lock()
		s.dedup[source] = dedupEntry{seq: seq}
		s.dmu.Unlock()
		close(done)
	}
	if err != nil {
		return false, s.degraded()
	}
	return true, nil
}

// dispatch queues one batch of columns for the estimator. The send blocks
// when the queue is full — that backpressure propagates to the TCP reader,
// which stops acking, which stalls the client's pipeline. The columns are
// copied into one fresh allocation, so on return the caller may reuse them
// for the next decode; the copy is garbage once applied. The copies are
// not pooled: a pool would keep up to a full queue's worth alive across
// the next GC, so the heap after a burst would depend on whether a
// collection had run.
func (s *session) dispatch(sets, elems []uint32) {
	n := len(sets)
	cols := make([]uint32, 2*n)
	copy(cols, sets)
	copy(cols[n:], elems)
	s.queue <- applyMsg{sets: cols[:n:n], elems: cols[n:]}
	s.edges.Add(int64(len(sets)))
	s.batches.Add(1)
}

// onApply enqueues fn behind every batch already queued, for the apply
// goroutine to run on the estimator; the returned channel closes once fn
// has returned. The caller holds a pin (or resMu's write side on a
// hydrated session), so the queue exists. The send may wait on a full
// queue under the lock; the apply goroutine never takes resMu, so the
// queue drains.
func (s *session) onApply(fn func(est *streamcover.Estimator)) <-chan struct{} {
	done := make(chan struct{})
	s.queue <- applyMsg{run: func(est *streamcover.Estimator) { fn(est); close(done) }}
	return done
}

// query runs Result on the live estimator's apply goroutine, behind
// everything acked before the query; Result leaves the estimator
// unchanged.
func (s *session) query(metrics *Metrics) (wire.Result, error) {
	release, err := s.pin()
	if err != nil {
		return wire.Result{}, err
	}
	defer release()
	s.queries.Add(1)
	start := time.Now()
	var res streamcover.Result
	var edges int
	<-s.onApply(func(est *streamcover.Estimator) { res, edges = est.Result(), est.Edges() })
	if metrics != nil {
		metrics.QueryHist.Observe(time.Since(start).Nanoseconds())
	}
	return wire.Result{
		Coverage:   res.Coverage,
		Feasible:   res.Feasible,
		SpaceWords: res.SpaceWords,
		Edges:      edges,
		SetIDs:     res.SetIDs,
	}, nil
}

// close marks the session closed and drains its apply goroutine under
// resMu's write side, so in-flight operations finish first and later ones
// are refused; the goroutine exits after consuming what was already
// enqueued, and the estimator releases its batch-engine helpers. Closing
// an evicted session (state safe in the checkpoint) just marks it. The
// replication stream and the recovery loop stop only after resMu is
// released: a follower bootstrap takes the write side, so stopping its
// applier under the lock would deadlock.
func (s *session) close() {
	s.resMu.Lock()
	if s.state == stateClosed {
		s.resMu.Unlock()
		return
	}
	s.state = stateClosed
	s.setEstimator(nil)
	s.resMu.Unlock()
	if a := s.applier.Swap(nil); a != nil {
		a.Stop()
	}
	s.stopRecovery()
	// A closed session no longer counts against the memory budget.
	s.setResidentBytes(0)
}
