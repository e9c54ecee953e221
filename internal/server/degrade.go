package server

import (
	"errors"
	"fmt"
	"time"

	"streamcover/internal/fault"
)

// ErrDegraded marks a session whose durability path is broken (a WAL
// append, fsync or checkpoint failed). The session keeps serving queries
// — its in-memory state is intact — but rejects ingest, because an ack
// would promise a durability it cannot currently deliver. A background
// loop retries recovery with exponential backoff; once the WAL is healthy
// again and a fresh checkpoint has captured the applied-but-not-durable
// batches, the session returns to normal with no restart.
var ErrDegraded = errors.New("session degraded")

// ErrReadOnly marks the server-wide disk-full mode: while any session is
// degraded because of ENOSPC, every ingest (on any session) is rejected
// with this typed error and queries keep being served. Writing more WAL
// on a full disk can only dig the hole deeper.
var ErrReadOnly = errors.New("server read-only")

// degrade records a durability failure and moves the session into the
// degraded state, starting its recovery loop. Idempotent for concurrent
// failures; only the first error is kept.
func (s *session) degrade(err error) {
	s.fmu.Lock()
	defer s.fmu.Unlock()
	if s.degradedErr != nil || s.recStopped {
		return
	}
	s.degradedErr = fmt.Errorf(
		"server: session %q: %w: ingest rejected while durability recovers: %w",
		s.name, ErrDegraded, err)
	s.countDegraded(1)
	s.recWG.Add(1)
	go s.recoverLoop()
}

// countDegraded moves the server-wide degraded gauge, and the disk-full
// gauge when the degradation is ENOSPC, by delta. The caller holds fmu
// with degradedErr set.
func (s *session) countDegraded(delta int64) {
	if s.metrics == nil {
		return
	}
	s.metrics.DegradedSessions.Add(delta)
	if fault.IsDiskFull(s.degradedErr) {
		s.metrics.DiskFullSessions.Add(delta)
	}
}

// degraded reports the session's current degradation, nil when healthy.
func (s *session) degraded() error {
	s.fmu.Lock()
	defer s.fmu.Unlock()
	return s.degradedErr
}

// health reports the session's health state for /healthz: "ok",
// "read-only" (degraded by a full disk) or "degraded", plus the causing
// error's message.
func (s *session) health() (status, detail string) {
	s.fmu.Lock()
	defer s.fmu.Unlock()
	switch {
	case s.degradedErr == nil:
		return "ok", ""
	case fault.IsDiskFull(s.degradedErr):
		return "read-only", s.degradedErr.Error()
	default:
		return "degraded", s.degradedErr.Error()
	}
}

// recoverLoop retries tryRecover with exponential backoff until it
// succeeds or the session closes. One loop runs per degradation episode.
func (s *session) recoverLoop() {
	defer s.recWG.Done()
	backoff := s.retryMin
	for {
		select {
		case <-s.recStop:
			return
		case <-time.After(backoff):
		}
		if s.tryRecover() {
			return
		}
		backoff *= 2
		if backoff > s.retryMax {
			backoff = s.retryMax
		}
	}
}

// tryRecover attempts to bring a degraded session back: reset the WAL
// (clearing its sticky error and truncating any torn tail) under the
// checkpoint lock so no append races the rescan, then take a fresh
// checkpoint. The checkpoint is what restores the ack invariant — batches
// that were applied to the estimator but never became durable are inside
// the snapshot, and the WAL tail the fault interrupted is truncated away
// beneath it. Only then is the degradation cleared.
func (s *session) tryRecover() bool {
	d := s.dur
	if d == nil {
		return true // nothing durable to repair
	}
	d.pmu.Lock()
	err := d.wal.Reset()
	d.pmu.Unlock()
	if err != nil {
		return false
	}
	if err := s.checkpoint(s.metrics); err != nil {
		return false
	}
	s.fmu.Lock()
	if s.degradedErr != nil {
		s.countDegraded(-1)
		s.degradedErr = nil
		if s.metrics != nil {
			s.metrics.DurabilityRecoveries.Add(1)
		}
	}
	s.fmu.Unlock()
	return true
}

// stopRecovery halts the recovery loop (session close) and, if the
// session dies while still degraded, releases its claim on the
// server-wide gauges so a closed session cannot pin the server
// read-only. The recStopped flag, set under fmu before the join, keeps a
// late degrade (e.g. CheckpointAll erroring against a closing session)
// from starting a loop the join would miss or re-incrementing gauges
// after the cleanup.
func (s *session) stopRecovery() {
	s.fmu.Lock()
	s.recStopped = true
	s.fmu.Unlock()
	close(s.recStop)
	s.recWG.Wait()
	s.fmu.Lock()
	if s.degradedErr != nil {
		s.countDegraded(-1)
	}
	s.fmu.Unlock()
}
