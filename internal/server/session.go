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
// one apply goroutine from one bounded queue. Batches and clone requests
// share the queue, so a clone observes every batch enqueued before it and
// no part of any batch enqueued after it; a query finalizes its clone off
// the ingest path — ingest never stops. The estimator's own batch engine
// fans each batch across its (guess, repetition) oracle units, which is
// where the session's parallelism comes from.
type session struct {
	name  string
	m, n  int
	k     int
	alpha float64
	seed  int64

	// swapMu guards queue against replacement: a follower bootstrap, an
	// eviction and a rehydration swap the estimator and its queue
	// wholesale (see setEstimator), so clone enqueues and queue-length
	// probes hold the read side. Ingest dispatch does not: it runs under
	// a residency pin, and on followers on the one goroutine that also
	// bootstraps.
	swapMu   sync.RWMutex
	queue    chan applyMsg  // nil while evicted or closed
	queueCap int            // capacity each new queue is built with
	applyWG  sync.WaitGroup // the apply goroutine
	metrics  *Metrics       // server-wide counters (batch latency); may be nil in tests

	dur *durability // nil without a data dir

	// Degraded state (see degrade.go). A WAL append or checkpoint failure
	// leaves a batch applied to the estimator without being durable, so no
	// later ingest may be acknowledged — an ack promises the whole
	// acknowledged prefix survives a crash. Unlike a permanent poison, the
	// condition is repairable in place: the recovery loop resets the WAL
	// and re-checkpoints, then clears degradedErr.
	fmu         sync.Mutex
	degradedErr error // non-nil: ingest rejected, queries still served
	diskFull    bool  // degradation was ENOSPC (drives server read-only mode)
	recovering  bool  // a recoverLoop goroutine is live
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
	// that do not lead it, the server marks it a follower and attaches an
	// applier pulling the leader's WAL.
	// fenced stops a leader from accepting new writes ahead of an orderly
	// failover: acks are durable the moment they are sent, but shipping is
	// asynchronous, so a promotion is lossless only if the leader first
	// stops acking and the chosen follower drains the remaining tail.
	follower atomic.Bool
	fenced   atomic.Bool
	appMu    sync.Mutex
	applier  *replica.Applier

	// Residency (oversubscription; see oversub.go). A session is born
	// hydrated; the overseer may evict it down to its canonical checkpoint
	// — apply goroutine stopped, estimator freed, WAL parked — and any
	// later operation rehydrates it. evicted is guarded by resMu:
	// operations pin residency with the read side for their whole
	// duration, eviction and rehydration take the write side, so the queue
	// can never disappear under a dispatch. The zero value (hydrated, no overseer) keeps every
	// pre-oversubscription construction path valid.
	resMu         sync.RWMutex
	evicted       bool
	ovs           *overseer    // nil when the server runs without a budget
	residentBytes atomic.Int64 // last checkpoint's encoded size (0 while evicted)
	lastAccess    atomic.Int64 // unix nanos of the last op touch (LRU clock)
	rehydrations  atomic.Int64
	// wakers counts operations between arrival and their residency pin —
	// including the unlocked instant after a successful rehydration but
	// before the waker re-acquires the read side. Eviction refuses while
	// wakers > 0: without this, concurrent rehydrations of sibling
	// sessions under a tight budget can evict each other in that window
	// forever, a livelock in which no operation ever completes.
	wakers atomic.Int32

	mu     sync.Mutex
	closed bool
	ops    sync.WaitGroup // in-flight ingest/query dispatches

	edges   atomic.Int64
	batches atomic.Int64
	queries atomic.Int64
}

// colBatch is a dispatched batch's private copy of its columns —
// parallel set-ID and element-ID slices, the exact layout the estimator's
// ProcessColumns ingests with no per-edge conversion. The copy frees the
// connection's decode arena for the next frame; batchPool recycles it once
// the estimator is done reading.
type colBatch struct {
	sets, elems []uint32
}

var batchPool = sync.Pool{New: func() any { return new(colBatch) }}

// applyMsg is either a batch (clone == nil) or a snapshot request. One
// queue keeps the two ordered: a snapshot enqueued after a batch observes
// all of it.
type applyMsg struct {
	batch *colBatch
	clone chan<- cloneReply
}

type cloneReply struct {
	est *streamcover.Estimator
	err error
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

// testHookAfterAccept, when non-nil, runs on the sequenced-ingest path
// after the dedup entry for (source, seq) is published and before the WAL
// append. Tests park an ingest here to model a batch stalled inside the
// group-commit fsync.
var testHookAfterAccept func(source, seq uint64)

func newSession(name string, m, n, k int, alpha float64, seed int64, queueCap int, metrics *Metrics, arena *streamcover.InternArena) (*session, error) {
	est, err := streamcover.NewEstimator(m, n, k, alpha, streamcover.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	est.SetInternArena(arena)
	return newSessionWith(name, m, n, k, alpha, seed, queueCap, metrics, est), nil
}

// newSessionWith builds a session around a pre-made estimator — a fresh
// one for a new session, a restored one during crash recovery.
func newSessionWith(name string, m, n, k int, alpha float64, seed int64, queueCap int, metrics *Metrics, est *streamcover.Estimator) *session {
	s := &session{
		name: name, m: m, n: n, k: k, alpha: alpha, seed: seed,
		metrics: metrics, dedup: make(map[uint64]dedupEntry),
		recStop: make(chan struct{}), retryMin: 50 * time.Millisecond, retryMax: 5 * time.Second,
		queueCap: queueCap,
	}
	s.setEstimator(est)
	return s
}

// setEstimator replaces the session's estimator and its apply goroutine.
// The old queue closes and its goroutine exits after consuming what was
// already enqueued (clone requests included, so they are still answered),
// releasing the old estimator's engine. A non-nil est gets a fresh queue
// and goroutine; nil leaves the session without one (evicted or
// closed), and is a no-op when it already has none. Callers must exclude
// concurrent dispatches (close does it via ops.Wait, eviction via resMu,
// a follower bootstrap by running on the only goroutine that dispatches).
func (s *session) setEstimator(est *streamcover.Estimator) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
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

// scratchIdleAfter is how long an apply goroutine sits without traffic
// before it hands its batch scratch (interner tables) back to the shared
// arena. The delay keeps a single busy session from thrashing its scratch
// — release on every queue-empty observation would reallocate per batch —
// while an idle one among thousands still returns its working memory for
// the active sessions to reuse.
const scratchIdleAfter = 250 * time.Millisecond

// runApply is the session's apply goroutine: it owns est, applies batches
// and answers clone requests in queue order, and releases est's engine
// when the queue closes.
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
			est.ReleaseScratch()
			continue // timer not reset: release once, then block on the queue
		}
		if !idle.Stop() {
			select {
			case <-idle.C:
			default:
			}
		}
		idle.Reset(scratchIdleAfter)
		if msg.clone != nil {
			c, err := est.Clone()
			msg.clone <- cloneReply{c, err}
			continue
		}
		start := time.Now()
		// IDs were validated against the session dims at decode time, so
		// the batched ingest cannot fail here.
		est.ProcessColumns(msg.batch.sets, msg.batch.elems)
		d := time.Since(start).Nanoseconds()
		msg.batch.sets, msg.batch.elems = msg.batch.sets[:0], msg.batch.elems[:0]
		batchPool.Put(msg.batch)
		if s.metrics != nil {
			s.metrics.BatchNanos.Add(d)
			s.metrics.LastBatchNanos.Store(d)
			s.metrics.BatchesProcessed.Add(1)
			s.metrics.IngestHist.Observe(d)
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

// residency reports the session's oversubscription state for /sessions
// and /metrics.
func (s *session) residency() (resident bool, bytes, lastAccess, rehydrations int64) {
	s.resMu.RLock()
	resident = !s.evicted
	s.resMu.RUnlock()
	return resident, s.residentBytes.Load(), s.lastAccess.Load(), s.rehydrations.Load()
}

// begin registers an operation if the session is still open.
func (s *session) begin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("server: session %q closed", s.name)
	}
	s.ops.Add(1)
	return nil
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
	if d.appendFn != nil {
		// Test seam: appendFn stands in for the whole append (write and
		// fsync both), so it keeps the fully-overlapped shape.
		go func() {
			_, err := d.appendFn(rec)
			ch <- err
		}()
		s.dispatch(sets, elems)
		s.omu.Unlock()
		return ch
	}
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

// ingest logs and queues one validated unsequenced batch, overlapping the
// WAL fsync with the apply. sets/elems are the batch's columns (both wire
// encodings decode into this form); rec is the WAL record for the batch
// (type byte + wire payload), ignored when the session has no durability.
func (s *session) ingest(sets, elems []uint32, rec []byte) error {
	release, err := s.beginResident()
	if err != nil {
		return err
	}
	defer release()
	d := s.dur
	if d == nil {
		s.dispatch(sets, elems)
		return nil
	}
	d.pmu.RLock()
	defer d.pmu.RUnlock()
	if err := s.degraded(); err != nil {
		return err
	}
	appended := s.logAndDispatch(d, rec, sets, elems)
	if err := <-appended; err != nil {
		// The batch is applied but not durable; no future ack may claim
		// otherwise. Degrade (recovery will re-checkpoint the applied
		// state) and answer with the typed transient error so the client
		// parks the batch instead of treating the session as dead. The
		// ingest counters are bumped here because the handler, seeing an
		// error, will not: the edges are in the estimator.
		if s.metrics != nil {
			s.metrics.WALAppendFailures.Add(1)
			s.metrics.EdgesIngested.Add(int64(len(sets)))
			s.metrics.Batches.Add(1)
		}
		s.degrade(err)
		return s.degraded()
	}
	return nil
}

// ingestSeq is the exactly-once ingest path: drop the batch if this
// (source, seq) was already applied, otherwise log it durably and queue
// it. The ack the caller sends on a nil error therefore promises the
// batch survives a crash, and a client replaying unacknowledged batches
// after a reconnect cannot double-count. Returns whether the batch was
// applied (false: recognized duplicate, still acknowledged).
//
// Accepted batches are serialized per source: a second ingest for the
// same source — the next sequence, or a duplicate resent over a fresh
// connection while the original is still inside the group-commit fsync —
// waits until the previous one settles. A duplicate's ack therefore never
// outruns the durability of the batch it vouches for, which is exactly
// the reconnect-then-crash window the sequence numbers exist to cover.
//
// Like ingest, the WAL append and the apply run concurrently; the return
// (and so the ack) waits for both. On append failure the batch
// has already been applied, so instead of rolling back, the accepted
// horizon is KEPT (a resend of this seq must not be applied twice) and
// the session degrades — the resend is answered with the typed transient
// error rather than a false durability ack, and recovery's fresh
// checkpoint makes the applied batch durable before ingest resumes.
func (s *session) ingestSeq(source, seq uint64, rec []byte, sets, elems []uint32) (bool, error) {
	release, err := s.beginResident()
	if err != nil {
		return false, err
	}
	defer release()
	d := s.dur
	if d != nil {
		d.pmu.RLock()
		defer d.pmu.RUnlock()
	}
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
			done := prev.done
			s.dmu.Unlock()
			<-done
			continue
		}
		if seq <= prev.seq {
			s.dmu.Unlock()
			return false, nil
		}
		var done chan struct{}
		if d != nil {
			done = make(chan struct{})
		}
		s.dedup[source] = dedupEntry{seq: seq, done: done}
		s.dmu.Unlock()
		if hook := testHookAfterAccept; hook != nil {
			hook(source, seq)
		}
		if d == nil {
			s.dispatch(sets, elems)
			return true, nil
		}
		appended := s.logAndDispatch(d, rec, sets, elems)
		err := <-appended
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
		// Settle the entry at the accepted horizon either way — the batch
		// was applied. The entry is still ours (anyone else is parked on
		// done), so this cannot clobber a concurrent publish.
		s.dmu.Lock()
		s.dedup[source] = dedupEntry{seq: seq}
		s.dmu.Unlock()
		close(done)
		if err != nil {
			return false, s.degraded()
		}
		return true, nil
	}
}

// dispatch queues one batch of columns for the estimator. The send blocks
// when the queue is full — that backpressure propagates to the TCP reader,
// which stops acking, which stalls the client's pipeline. The columns are
// copied into a pooled buffer, so on return the caller may reuse them for
// the next decode.
func (s *session) dispatch(sets, elems []uint32) {
	b := batchPool.Get().(*colBatch)
	b.sets = append(b.sets, sets...)
	b.elems = append(b.elems, elems...)
	s.queue <- applyMsg{batch: b}
	s.edges.Add(int64(len(sets)))
	s.batches.Add(1)
}

// requestClone enqueues a snapshot request behind every batch already
// queued; the reply carries a deep copy of the estimator at that point.
// The caller must hold a residency pin (or the residency write lock), so
// the queue exists. The send may wait on a full queue under the read
// lock; the apply goroutine never takes swapMu, so the queue drains.
func (s *session) requestClone() <-chan cloneReply {
	r := make(chan cloneReply, 1)
	s.swapMu.RLock()
	s.queue <- applyMsg{clone: r}
	s.swapMu.RUnlock()
	return r
}

// query clones the estimator (the request rides the apply queue, so
// everything acked before the query is included) and finalizes the clone
// off the ingest path.
func (s *session) query(metrics *Metrics) (wire.Result, error) {
	release, err := s.beginResident()
	if err != nil {
		return wire.Result{}, err
	}
	defer release()
	s.queries.Add(1)
	reply := s.requestClone()
	start := time.Now()
	rep := <-reply
	if rep.err != nil {
		return wire.Result{}, rep.err
	}
	res := rep.est.Result()
	if metrics != nil {
		d := time.Since(start).Nanoseconds()
		metrics.MergeNanos.Add(d)
		metrics.LastMergeNanos.Store(d)
		metrics.QueryHist.Observe(d)
	}
	return wire.Result{
		Coverage:   res.Coverage,
		Feasible:   res.Feasible,
		SpaceWords: res.SpaceWords,
		Edges:      rep.est.Edges(),
		SetIDs:     res.SetIDs,
	}, nil
}

// close drains and stops the apply goroutine: new operations are
// rejected, in-flight dispatches finish, then the queue closes, the
// goroutine exits after consuming what was already enqueued, and the
// estimator releases its batch-engine helpers.
func (s *session) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	// Stop the replication stream first (followers): its in-flight Apply
	// finishes (it began before closed was set), the next one fails begin,
	// and the applier's loop exits.
	s.stopApplier()
	s.ops.Wait()
	s.stopRecovery()
	// resMu serializes against a concurrent eviction or rehydration;
	// closing an evicted session (estimator already gone, state safe in
	// the checkpoint) is a no-op here.
	s.resMu.Lock()
	s.setEstimator(nil)
	s.resMu.Unlock()
	// A closed session no longer counts against the memory budget.
	s.setResidentBytes(0)
}

// beginResident registers an operation AND pins the session hydrated,
// rehydrating it first when it is parked at its checkpoint. The returned
// release func drops both; callers must invoke it exactly once. Pinning
// is the read side of resMu, so any number of operations share a
// hydrated session while an eviction (write side) waits them out.
func (s *session) beginResident() (func(), error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	s.wakers.Add(1)
	defer s.wakers.Add(-1)
	for {
		s.resMu.RLock()
		if !s.evicted {
			s.lastAccess.Store(time.Now().UnixNano())
			return func() { s.resMu.RUnlock(); s.ops.Done() }, nil
		}
		s.resMu.RUnlock()
		if s.ovs == nil {
			// Unreachable: only an overseer evicts. Fail loudly, not nil-deref.
			s.ops.Done()
			return nil, fmt.Errorf("server: session %q evicted with no overseer", s.name)
		}
		if err := s.ovs.rehydrate(s); err != nil {
			s.ops.Done()
			return nil, err
		}
	}
}

// queueLen reports the live apply-queue occupancy (0 while evicted).
func (s *session) queueLen() int {
	s.swapMu.RLock()
	defer s.swapMu.RUnlock()
	return len(s.queue)
}

// getApplier returns the session's replication applier, nil on leaders.
func (s *session) getApplier() *replica.Applier {
	s.appMu.Lock()
	defer s.appMu.Unlock()
	return s.applier
}

// stopApplier detaches and stops the replication stream, if any.
func (s *session) stopApplier() {
	s.appMu.Lock()
	a := s.applier
	s.applier = nil
	s.appMu.Unlock()
	if a != nil {
		a.Stop()
	}
}
