package server

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"streamcover"
)

// ErrOverloaded marks transient capacity rejections from the
// oversubscription layer: a rehydration backlog (too many evicted sessions
// woke at once) or a failed rehydration attempt. Like ErrDegraded it maps
// to the typed retry response, so clients park the batch and resend
// instead of treating the session as dead.
var ErrOverloaded = errors.New("server overloaded")

// overseer is the session-memory governor (enabled by Config.MemBudget).
// It tracks the summed resident footprint of hydrated sessions — each
// charged 8 bytes per SpaceWords word (residentCharge), measured at its
// last checkpoint, recovery or rehydration — and when the total exceeds
// the budget it evicts the coldest sessions down to their canonical
// checkpoints: checkpoint, stop the apply goroutine, free the estimator,
// park the WAL. The next operation on an evicted session
// rehydrates it through the crash-recovery path (snapshot restore + WAL
// tail replay), which makes rehydration bit-identical by construction. A
// bounded admission gate keeps a stampede of simultaneous rehydrations
// from blowing the budget the evictions just reclaimed: excess wakers get
// ErrOverloaded and retry.
type overseer struct {
	srv    *Server
	budget int64         // resident-bytes ceiling across all hydrated sessions
	admit  chan struct{} // rehydration tokens (capacity rehydrateConcurrency)

	// residentBytes is the hydrated total, maintained by
	// session.setResidentBytes from checkpoints, rehydrations and
	// evictions.
	residentBytes atomic.Int64

	metrics *Metrics
}

// rehydrateConcurrency bounds simultaneous rehydrations: each holds a
// decoded estimator on top of the budget until it is installed.
const rehydrateConcurrency = 2

func newOverseer(srv *Server) *overseer {
	o := &overseer{
		srv:     srv,
		budget:  srv.cfg.MemBudget,
		admit:   make(chan struct{}, rehydrateConcurrency),
		metrics: &srv.metrics,
	}
	for i := 0; i < cap(o.admit); i++ {
		o.admit <- struct{}{}
	}
	return o
}

// rehydrate brings an evicted session back to hydrated: restore the
// checkpoint's estimator, replay the parked WAL's tail (empty unless a
// crash interleaved), restore the dedup horizons, restart the apply
// goroutine. Runs under resMu's write side, so every operation parked in
// pin resumes against the fully rebuilt session.
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
	if s.state != stateEvicted {
		s.resMu.Unlock()
		return nil // lost the race to another waker (or to close); pin re-checks
	}
	start := time.Now()
	d := s.dur
	st, ok, err := loadCheckpoint(d.fs, d.dir)
	if err == nil && !ok {
		err = errors.New("checkpoint missing")
	}
	var est *streamcover.Estimator
	if err == nil {
		est, err = restore(&st, d.dir, d.wal, o.metrics)
	}
	if err != nil {
		s.resMu.Unlock()
		return fmt.Errorf("server: %w: session %q rehydration: %v", ErrOverloaded, s.name, err)
	}
	s.install(est, st.dedup)
	s.state = stateHydrated
	s.rehydrations.Add(1)
	s.lastAccess.Store(time.Now().UnixNano())
	s.resMu.Unlock()

	o.metrics.RehydrateHist.Observe(time.Since(start).Nanoseconds())
	// The wake may have pushed the hydrated total over budget; evict the
	// coldest sessions (not this one — its access clock was just touched).
	o.maybeEvict()
	return nil
}

// evict parks one session at its canonical checkpoint, reporting whether
// it did. The checkpoint (taken under resMu's write side, so no operation
// is in flight) captures estimators + dedup horizons and
// truncates the WAL behind itself; then the apply goroutine stops, the
// estimator frees, and the WAL parks — same Log object, file handle closed, replay
// still possible. Sessions that are closed, degraded (recovery owns
// them), replication roles (followers mirror a leader's stream; fenced
// leaders are mid-failover), or have pinned WAL readers (an attached
// shipper is tailing) are skipped.
func (o *overseer) evict(s *session) bool {
	if s.dur == nil || s.role.Load() != roleLeader || s.dur.wal.Pins() > 0 || s.degraded() != nil {
		return false
	}
	s.resMu.Lock()
	defer s.resMu.Unlock()
	if s.state != stateHydrated {
		return false
	}
	// An operation is on its way to pinning this session — possibly in
	// the unlocked instant right after it rehydrated it. Evicting now
	// would only force an immediate re-rehydration (livelock under a
	// tight budget); the session is by definition hot, so pass it over.
	if s.wakers.Load() > 0 {
		return false
	}
	if err := s.checkpointLocked(o.metrics); err != nil {
		return false
	}
	s.setEstimator(nil)
	s.dur.wal.Close()
	s.state = stateEvicted
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
