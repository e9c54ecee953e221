// Cluster mode. A server becomes a cluster node when Config.Peers names
// the member set: session leadership is placed on a consistent-hash ring
// over the peer IDs, leaders stream their sessions' WALs to subscribed
// followers (internal/replica), and followers mirror each record into
// their own log at the same position before applying it through the
// replay path. Because a session applies its log one batch per record in
// log order, a caught-up follower's estimator — and its on-disk
// checkpoint+WAL — is byte-for-byte the leader's, which is why Promote is
// a role change on the live session and why convergence is checkable by
// comparing SessionDigest across nodes.
//
// There is no consensus protocol. The control plane (scenario harness,
// HTTP endpoints, an operator) decides membership and failover; the
// data plane only guarantees that "caught up" means "byte-equal".
package server

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"path/filepath"
	"time"

	"streamcover"
	"streamcover/internal/replica"
	"streamcover/internal/snapshot"
	"streamcover/internal/stream"
	"streamcover/internal/wal"
	"streamcover/internal/wire"
)

// notLeaderError rejects leader-only work sent to a follower; ack turns
// it into a TErrNotLeader frame naming the leader so the client can
// re-route without re-resolving placement out of band.
type notLeaderError struct{ leader string }

func (e *notLeaderError) Error() string {
	return fmt.Sprintf("server: not the leader for this session (leader %q)", e.leader)
}

// clustered reports whether this server runs as a cluster node.
func (s *Server) clustered() bool { return s.ring != nil }

// leaderOf names the session's leader node: a failover override when one
// was recorded, otherwise the ring placement.
func (s *Server) leaderOf(name string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leaderOfLocked(name)
}

func (s *Server) leaderOfLocked(name string) string {
	if addr, ok := s.leaders[name]; ok {
		return addr
	}
	if s.ring == nil {
		return s.cfg.NodeID
	}
	return s.ring.Leader(name)
}

// shipSource adapts one leader session to the replica shipper.
type shipSource struct {
	sess    *session
	metrics *Metrics
}

func (src *shipSource) Log() *wal.Log { return src.sess.dur.wal }

// Snapshot forces a fresh checkpoint and returns its blob: the persisted
// checkpoint file is re-read and re-decoded so the reported WAL position
// is exactly the one inside the blob, with no race against a concurrent
// checkpoint advancing it.
func (src *shipSource) Snapshot() (uint64, []byte, error) {
	d := src.sess.dur
	if err := src.sess.checkpoint(src.metrics); err != nil {
		return 0, nil, err
	}
	payload, err := snapshot.ReadFileFS(d.fs, filepath.Join(d.dir, checkpointFile))
	if err != nil {
		return 0, nil, err
	}
	st, err := decodeCheckpoint(payload)
	if err != nil {
		return 0, nil, fmt.Errorf("server: %s: %w", d.dir, err)
	}
	return st.walPos, payload, nil
}

// serveShip turns one accepted connection into a replication stream for
// the subscribed session. The connection is dedicated from here on: no
// more frames are read, and writes go through a per-write deadline so a
// stalled follower is reaped rather than parking the handler.
func (s *Server) serveShip(conn net.Conn, bw *bufio.Writer, payload []byte) {
	bw.Flush() // settle any response buffered before the subscribe
	w := bufio.NewWriterSize(&deadlineConn{Conn: conn, timeout: s.cfg.WriteTimeout}, 1<<16)
	fail := func(typ byte, msg []byte) {
		if typ == wire.TErr {
			s.metrics.Errors.Add(1)
		}
		wire.WriteFrame(w, typ, msg)
		w.Flush()
	}
	name, applied, err := wire.DecodeSubscribe(payload)
	if err != nil {
		fail(wire.TErr, []byte(err.Error()))
		return
	}
	sess, err := s.session(name)
	if err != nil {
		fail(ackFrame(err)) // TErrRetry while shutting down
		return
	}
	if sess.role.Load() == roleFollower {
		fail(wire.TErrNotLeader, wire.EncodeNotLeader(s.leaderOf(name)))
		return
	}
	if sess.dur == nil {
		fail(wire.TErr, []byte(fmt.Sprintf("server: session %q has no WAL to replicate", name)))
		return
	}
	conn.SetReadDeadline(time.Time{}) // one-way from here
	s.metrics.RepStreams.Add(1)
	defer s.metrics.RepStreams.Add(-1)
	replica.Ship(w, &shipSource{sess: sess, metrics: &s.metrics}, applied, replica.ShipOptions{
		HeartbeatEvery: s.cfg.RepHeartbeat,
	})
}

// deadlineConn arms a write deadline before every Write, so the shipper's
// long-lived one-way stream cannot block forever on a dead peer.
type deadlineConn struct {
	net.Conn
	timeout time.Duration
}

func (c *deadlineConn) Write(p []byte) (int, error) {
	if c.timeout > 0 {
		c.Conn.SetWriteDeadline(time.Now().Add(c.timeout))
	}
	return c.Conn.Write(p)
}

// followerTarget adapts one follower session to the replica applier. All
// methods run on the applier's single goroutine, so the decode arena is
// owned, not shared.
type followerTarget struct {
	s    *Server
	sess *session
	cols stream.Columns
}

func (t *followerTarget) Applied() uint64 { return t.sess.dur.wal.LastPos() }

func (t *followerTarget) Bootstrap(walPos uint64, ckpt []byte) error {
	return t.sess.rebootstrap(walPos, ckpt, &t.s.metrics)
}

// Apply mirrors one leader WAL record: append it to the local log (it
// must land at the leader's position — the logs are byte-identical), then
// run it through the same dedup check recovery replay uses and queue it.
// Unlike leader ingest, the append is not overlapped with the dispatch:
// the estimator must never get ahead of the mirror, or a
// follower crash could recover to a state its own log cannot reproduce.
func (t *followerTarget) Apply(pos uint64, rec []byte) error {
	sess := t.sess
	// Followers are never evicted (the overseer skips them), so this is
	// the hydrated fast path; the pin keeps the invariant explicit and the
	// LRU clock honest.
	release, err := sess.pin()
	if err != nil {
		return err
	}
	defer release()
	d := sess.dur
	d.pmu.RLock()
	defer d.pmu.RUnlock()
	if err := sess.degraded(); err != nil {
		return err
	}
	source, seq, err := decodeWALRecord(rec, sess.name, sess.m, sess.n, &t.cols)
	if err != nil {
		return err
	}
	got, err := d.wal.Append(rec)
	if err != nil {
		if sess.metrics != nil {
			sess.metrics.WALAppendFailures.Add(1)
		}
		sess.degrade(err)
		return sess.degraded()
	}
	if got != pos {
		err := fmt.Errorf("server: replica %q mirror landed at %d, leader logged %d", sess.name, got, pos)
		sess.degrade(err)
		return err
	}
	sess.dmu.Lock()
	skip := seq <= sess.dedup[source].seq // the leader logged and skipped this duplicate; mirror the skip
	if !skip {
		sess.dedup[source] = dedupEntry{seq: seq}
	}
	sess.dmu.Unlock()
	if !skip {
		sess.dispatch(t.cols.Sets, t.cols.Elems)
		t.s.metrics.RepEdgesApplied.Add(int64(t.cols.Len()))
	}
	t.s.metrics.RepEntriesApplied.Add(1)
	return nil
}

// attachFollower marks sess a follower of leaderID and starts its
// replication stream.
func (s *Server) attachFollower(sess *session, leaderID string) {
	sess.role.Store(roleFollower)
	a := replica.NewApplier(sess.name, leaderID, &followerTarget{s: s, sess: sess}, replica.ApplyOptions{
		ReadTimeout: s.cfg.RepReadTimeout,
	})
	sess.applier.Store(a)
	a.Start()
}

// rebootstrap replaces the session's state with a leader checkpoint:
// swap in the checkpoint's estimator, adopt its dedup horizons, persist
// it, and re-base the mirror log at its WAL position. Runs on the applier
// goroutine — the follower's only dispatcher. The swap is a lifecycle
// transition, taken under resMu's write side; ckptMu, taken inside it,
// excludes concurrent checkpoints through the file write and the re-base,
// while reads resume as soon as the new estimator is live.
func (s *session) rebootstrap(walPos uint64, payload []byte, metrics *Metrics) error {
	st, err := decodeCheckpoint(payload)
	if err != nil {
		return fmt.Errorf("server: bootstrap: %w", err)
	}
	if st.name != s.name || st.m != s.m || st.n != s.n || st.k != s.k || st.alpha != s.alpha || st.seed != s.seed {
		return fmt.Errorf("server: bootstrap checkpoint is for session %q (%d,%d,%d), want %q (%d,%d,%d)",
			st.name, st.m, st.n, st.k, s.name, s.m, s.n, s.k)
	}
	est, err := st.estimator()
	if err != nil {
		return err
	}
	s.resMu.Lock()
	if s.state != stateHydrated {
		s.resMu.Unlock()
		est.Close()
		return s.errClosed() // followers are never evicted
	}
	d := s.dur
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	s.install(est, st.dedup)
	s.resMu.Unlock()

	// Persist the checkpoint, then re-base the log under it. A crash
	// between the two leaves the checkpoint ahead of the log — recovery
	// restores the checkpoint, replays nothing (the stale records sit
	// below its position), and finishes the re-base.
	if err := snapshot.WriteFileFS(d.fs, filepath.Join(d.dir, checkpointFile), payload); err != nil {
		s.degrade(err)
		return err
	}
	d.pmu.Lock()
	err = d.wal.ResetTo(walPos + 1)
	d.pmu.Unlock()
	if err != nil {
		s.degrade(err)
		return err
	}
	d.ckptPos.Store(walPos)
	d.lastCkptNanos.Store(time.Now().UnixNano())
	if metrics != nil {
		metrics.RepBootstraps.Add(1)
	}
	return nil
}

// Promote turns a follower session into the leader replica on this node,
// in place. A follower that applied the leader's log in order already
// holds the leader's estimator, dedup horizons, checkpoint and log, so
// nothing is closed, decoded or replayed: stop the replication stream
// (Stop waits out any record or bootstrap still in flight), record the
// leadership override, then flip the role. Only the caller that stopped
// an applier flips it. A follower with no applier attached — mid-create,
// or another Promote already stopping it — gets the transient degraded
// error and stays a follower, so no follower Apply can run once the role
// reads leader.
func (s *Server) Promote(name string) error {
	sess, err := s.session(name)
	if err != nil {
		return err
	}
	if sess.role.Load() != roleFollower {
		return nil // already the leader
	}
	a := sess.applier.Swap(nil)
	if a == nil {
		return fmt.Errorf("server: %w: session %q has no replication stream to stop", ErrDegraded, name)
	}
	a.Stop()
	s.mu.Lock()
	s.leaders[name] = s.cfg.NodeID
	s.mu.Unlock()
	sess.role.Store(roleLeader)
	s.metrics.RepPromotions.Add(1)
	return nil
}

// Fence freezes a leader session's log ahead of an orderly failover: new
// ingest is rejected with the not-leader redirect (clients park the batch
// and re-resolve), while queries and the replication streams keep
// running, so followers drain the remaining tail from a head that can no
// longer move. Shipping is asynchronous — without the fence, a kill can
// strand the last few acked batches on the dead node's disk, and the
// promoted follower would never see them. Fencing a follower is a no-op;
// a fenced node is expected to be retired, not unfenced.
func (s *Server) Fence(name string) error {
	sess, err := s.session(name)
	if err != nil {
		return err
	}
	sess.role.CompareAndSwap(roleLeader, roleFenced)
	return nil
}

// SetSessionLeader records a failover override: name is now led by
// leaderID. On a follower the live replication stream is retargeted
// immediately.
func (s *Server) SetSessionLeader(name, leaderID string) {
	s.mu.Lock()
	s.leaders[name] = leaderID
	sess := s.sessions[name]
	s.mu.Unlock()
	if sess == nil || sess.role.Load() != roleFollower || leaderID == s.cfg.NodeID {
		return
	}
	if a := sess.applier.Load(); a != nil {
		a.SetLeader(leaderID)
	}
}

// SessionRole reports this node's view of one session: its role, who it
// believes leads, its applied watermark, and (followers) its staleness.
func (s *Server) SessionRole(name string) (wire.RoleInfo, error) {
	sess, err := s.session(name)
	if err != nil {
		return wire.RoleInfo{}, err
	}
	info := wire.RoleInfo{Role: wire.RoleLeader, LeaderAddr: s.leaderOf(name)}
	role := sess.role.Load()
	if role == roleFollower {
		info.Role = wire.RoleFollower
		if a := sess.applier.Load(); a != nil {
			info.LeaderAddr = a.Leader()
			info.Applied = a.Applied()
			info.StalenessNanos = int64(a.Staleness())
		}
	} else if d := sess.dur; d != nil {
		info.Applied = d.wal.LastPos()
		if role == roleFenced {
			// A fenced leader no longer claims the role — probes must not
			// route writes back here — but its frozen durable head is still
			// what a draining follower has to reach before promotion.
			info.Role = wire.RoleFollower
		}
	}
	return info, nil
}

// querySession answers a query within a staleness bound: leaders always
// qualify; a follower answers only while its watermark age is within the
// client's bound, else the transient retry error (the replica may catch
// up, or the client can fall back to the leader). wire.AnyStaleness
// takes a follower's state as it is.
func (s *Server) querySession(name string, maxStale time.Duration) (wire.Result, error) {
	sess, err := s.session(name)
	if err != nil {
		return wire.Result{}, err
	}
	if sess.role.Load() == roleFollower && maxStale < wire.AnyStaleness {
		a := sess.applier.Load()
		if a == nil {
			return wire.Result{}, fmt.Errorf("server: %w: session %q has no replication stream", ErrDegraded, name)
		}
		if st := a.Staleness(); st > maxStale {
			s.metrics.StaleRejects.Add(1)
			return wire.Result{}, fmt.Errorf("server: %w: replica %v stale, bound %v",
				ErrDegraded, st.Round(time.Millisecond), maxStale)
		}
	}
	s.metrics.Queries.Add(1)
	return sess.query(&s.metrics)
}

// SessionDigest hashes the session's live state: SHA-256 over the
// estimator's encoding. Replicas converge to the same digest exactly when
// their estimators are byte-identical — the replication invariant, made
// checkable in one comparison.
func (s *Server) SessionDigest(name string) (string, error) {
	sess, err := s.session(name)
	if err != nil {
		return "", err
	}
	return sess.digest()
}

func (s *session) digest() (string, error) {
	// Pinning an evicted session rehydrates it first (the clone needs a
	// live apply queue).
	release, err := s.pin()
	if err != nil {
		return "", err
	}
	defer release()
	var snap *streamcover.Estimator
	<-s.onApply(func(est *streamcover.Estimator) { snap, err = est.Clone() })
	if err != nil {
		return "", err
	}
	blob, err := snap.Encode()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}
