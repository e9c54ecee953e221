package server

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// ErrOverloaded marks transient capacity rejections from the
// oversubscription layer: a rehydration backlog (too many evicted sessions
// woke at once) or a failed rehydration attempt. Like ErrDegraded it maps
// to the typed retry response, so clients park the batch and resend
// instead of treating the session as dead.
var ErrOverloaded = errors.New("server overloaded")

// overseer is the session-memory governor (enabled by Config.MemBudget).
// It tracks the summed resident footprint of hydrated sessions — each
// charged its real serialized size, measured at its last checkpoint — and
// when the total exceeds the budget it evicts the coldest sessions down to
// their canonical checkpoints: checkpoint, stop the apply goroutine, free
// the estimator, park the WAL. The next operation on an evicted session
// rehydrates it through the crash-recovery path (snapshot restore + WAL
// tail replay), which makes rehydration bit-identical by construction. A
// bounded admission gate keeps a stampede of simultaneous rehydrations
// from blowing the budget the evictions just reclaimed: excess wakers get
// ErrOverloaded and retry.
type overseer struct {
	srv    *Server
	budget int64         // resident-bytes ceiling across all hydrated sessions
	quota  int64         // per-session resident ceiling (0: none)
	admit  chan struct{} // rehydration tokens (capacity = RehydrateConcurrency)

	// residentBytes is the hydrated total, maintained by
	// session.setResidentBytes from checkpoint encodes and evictions.
	residentBytes atomic.Int64

	metrics *Metrics
}

func newOverseer(srv *Server) *overseer {
	o := &overseer{
		srv:     srv,
		budget:  srv.cfg.MemBudget,
		quota:   srv.cfg.SessionQuota,
		admit:   make(chan struct{}, srv.cfg.RehydrateConcurrency),
		metrics: &srv.metrics,
	}
	for i := 0; i < cap(o.admit); i++ {
		o.admit <- struct{}{}
	}
	return o
}

// rehydrate brings an evicted session back to hydrated: decode the
// checkpoint's estimator, replay the parked WAL's tail (empty unless a
// crash interleaved), restore the dedup horizons, restart the apply
// goroutine. Runs under the residency write lock, so every operation
// parked in beginResident resumes against the fully rebuilt session.
//
// Admission is non-blocking: with all tokens taken the caller gets a
// typed transient rejection rather than a queue of goroutines each
// holding decoded estimator state. A failure mid-rehydration leaves the
// session evicted (its checkpoint is untouched and remains the canonical
// state) and is likewise answered as transient — the next attempt retries
// from the same checkpoint.
func (o *overseer) rehydrate(s *session) error {
	select {
	case <-o.admit:
	default:
		o.metrics.RehydrateRejects.Add(1)
		return fmt.Errorf("server: %w: session %q rehydration backlog, retry", ErrOverloaded, s.name)
	}
	defer func() { o.admit <- struct{}{} }()

	s.resMu.Lock()
	if !s.evicted {
		s.resMu.Unlock()
		return nil // lost the race to another waker; it did the work
	}
	start := time.Now()
	d := s.dur
	st, ok, err := loadCheckpoint(d.fs, d.dir)
	if err == nil && !ok {
		err = errors.New("checkpoint missing")
	}
	if err != nil {
		s.resMu.Unlock()
		return fmt.Errorf("server: %w: session %q rehydration: %v", ErrOverloaded, s.name, err)
	}
	est, err := estimatorFromCheckpoint(st, o.srv.cfg.arena)
	if err == nil {
		err = replayTail(d.wal, &st, est, o.metrics)
	}
	if err != nil {
		if est != nil {
			est.Close()
		}
		s.resMu.Unlock()
		return fmt.Errorf("server: %w: session %q rehydration: %v", ErrOverloaded, s.name, err)
	}
	s.dmu.Lock()
	s.dedup = make(map[uint64]dedupEntry, len(st.dedup))
	for src, seq := range st.dedup {
		s.dedup[src] = dedupEntry{seq: seq}
	}
	s.dmu.Unlock()
	s.edges.Store(int64(est.Edges()))
	s.setEstimator(est)
	s.evicted = false
	s.setResidentBytes(st.size())
	s.rehydrations.Add(1)
	s.lastAccess.Store(time.Now().UnixNano())
	s.resMu.Unlock()

	nanos := time.Since(start).Nanoseconds()
	o.metrics.RehydrationsTotal.Add(1)
	o.metrics.RehydrationNanos.Add(nanos)
	o.metrics.RehydrateHist.Observe(nanos)
	// The wake may have pushed the hydrated total over budget; evict the
	// coldest sessions (not this one — its access clock was just touched).
	o.maybeEvict()
	return nil
}

// evict parks one session at its canonical checkpoint, reporting whether
// it did. The checkpoint (taken under the residency write lock, so no
// operation is in flight) captures estimators + dedup horizons and
// truncates the WAL behind itself; then the apply goroutine stops, the
// estimator frees, and the WAL parks — same Log object, file handle closed, replay
// still possible. Sessions that are closed, degraded (recovery owns
// them), replication roles (followers mirror a leader's stream; fenced
// leaders are mid-failover), or have pinned WAL readers (an attached
// shipper is tailing) are skipped.
func (o *overseer) evict(s *session) bool {
	if s.dur == nil || s.follower.Load() || s.fenced.Load() {
		return false
	}
	if s.dur.wal.Pins() > 0 {
		return false
	}
	s.fmu.Lock()
	degraded := s.degradedErr != nil
	s.fmu.Unlock()
	if degraded {
		return false
	}
	s.resMu.Lock()
	defer s.resMu.Unlock()
	if s.evicted {
		return false
	}
	// An operation is on its way to pinning this session — possibly in
	// the unlocked instant right after it rehydrated it. Evicting now
	// would only force an immediate re-rehydration (livelock under a
	// tight budget); the session is by definition hot, so pass it over.
	if s.wakers.Load() > 0 {
		return false
	}
	// checkpointLocked begins an op, so a closed session bounces here.
	if err := s.checkpointLocked(o.metrics); err != nil {
		return false
	}
	s.setEstimator(nil)
	s.dur.wal.Close()
	s.evicted = true
	s.setResidentBytes(0)
	o.metrics.EvictionsTotal.Add(1)
	return true
}

// maybeEvict evicts coldest-first until the hydrated total fits the
// budget. Skipped or pinned sessions are passed over; if nothing evictable
// remains the total stays over budget (the budget bounds evictable state,
// not the irreducible working set). The hottest session is never evicted:
// an operation that just rehydrated it is about to run, and a budget
// smaller than one session would otherwise evict it right back — an
// evict/rehydrate spin in which no operation ever completes.
func (o *overseer) maybeEvict() {
	if o.residentBytes.Load() <= o.budget {
		return
	}
	sessions := o.srv.listSessions()
	if len(sessions) < 2 {
		return
	}
	sort.Slice(sessions, func(i, j int) bool {
		return sessions[i].lastAccess.Load() < sessions[j].lastAccess.Load()
	})
	for _, s := range sessions[:len(sessions)-1] {
		if o.residentBytes.Load() <= o.budget {
			return
		}
		o.evict(s)
	}
}

// checkQuota rejects an ingest when the session's resident footprint
// exceeds its per-session ceiling. Permanent (not a retry): the session
// must shrink or be re-created; retrying the same batch cannot succeed.
func (o *overseer) checkQuota(s *session) error {
	if o == nil || o.quota <= 0 {
		return nil
	}
	if rb := s.residentBytes.Load(); rb > o.quota {
		o.metrics.QuotaRejects.Add(1)
		return fmt.Errorf("server: session %q resident size %d exceeds per-session quota %d", s.name, rb, o.quota)
	}
	return nil
}
