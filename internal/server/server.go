// Package server implements kcoverd: a network ingest daemon for the
// streaming Max k-Cover estimator. Clients open named sessions, push
// framed batches of (set, element) edges over TCP, and query a live
// coverage estimate at any time; an HTTP sidecar exposes queries, session
// listings and metrics to humans and scrapers.
//
// Concurrency model: each session owns one streamcover.Estimator, fed by
// one apply goroutine from a bounded queue (backpressure). The estimator's
// batch engine fans each batch across its (guess, repetition) oracle units
// on up to GOMAXPROCS goroutines, bit-identically at any count, so the
// session's state is the paper's single estimator and its durable
// identity does not depend on the host. A query runs Result on the apply
// goroutine behind the batches already queued, so it answers for every
// batch acked before it. Responses on a connection are strictly ordered
// (clients pipeline against that), but applying an ingest — the WAL
// group-commit fsync overlapped with the queue dispatch — runs on a
// per-connection apply goroutine while the handler reads and decodes the
// next pipelined frame, so a burst's decode cost hides behind the
// previous batch's fsync. Every batch is a sequenced columnar frame
// (wire.TIngestSeq carrying MKC2) that decodes straight into column
// arenas; edges never materialize as row structs on the server.
//
// The server reads only what it writes: live, on WAL replay and on
// follower apply it decodes TIngestSeq records, and a checkpoint holds
// one estimator in encoding v2. A data dir holding anything older — a
// version-1 checkpoint, a shard-era checkpoint, a WAL record of the
// retired unsequenced type 0x02 — makes Start fail with an error that
// names the file, and recovery leaves the directory as it found it.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"streamcover/internal/fault"
	"streamcover/internal/replica"
	"streamcover/internal/stream"
	"streamcover/internal/wire"
)

// Config sizes a Server. Zero values pick sane defaults.
type Config struct {
	// QueueDepth is each session's apply-queue capacity in batches; a
	// full queue blocks ingest dispatch (backpressure). Default: 64.
	QueueDepth int
	// DataDir enables durability: each session keeps a checkpoint
	// snapshot plus a WAL of acknowledged batches under this directory,
	// and Start recovers every session found there before accepting
	// connections. Empty: in-memory only.
	DataDir string
	// CheckpointEvery is the background checkpoint cadence. Default 30s;
	// negative disables the ticker (checkpoints still happen on shutdown
	// and via the /checkpoint HTTP endpoint).
	CheckpointEvery time.Duration
	// WALSegmentBytes caps one WAL segment file (default 64 MiB).
	WALSegmentBytes int64
	// WALNoSync skips the fsync before each ingest ack. Acknowledged
	// batches may be lost in a crash; for tests and bulk loads.
	WALNoSync bool
	// ReadTimeout bounds the wait for the next frame on an idle
	// connection; when it fires the connection is reaped (a half-open or
	// hung peer can no longer park a handler in a read forever). Default
	// 5m; negative disables.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response write. Default 1m; negative
	// disables.
	WriteTimeout time.Duration
	// RetryMin/RetryMax bound the exponential backoff of a degraded
	// session's durability-recovery loop. Defaults 50ms / 5s.
	RetryMin time.Duration
	RetryMax time.Duration
	// FS is the filesystem the durability path (WAL + checkpoints) writes
	// through. Default the real filesystem; tests inject faults by
	// passing a *fault.Injector.
	FS fault.FS

	// MemBudget, when positive, enables session oversubscription: the
	// summed resident size of hydrated sessions — 8 bytes per word of each
	// estimator's SpaceWords — is kept at or under this many bytes by
	// evicting the least-recently-used sessions down to their checkpoints;
	// the next operation rehydrates them transparently. Requires a DataDir
	// (eviction parks state on disk). 0: every session stays hydrated.
	MemBudget int64

	// Cluster mode (see cluster.go), enabled when Peers is non-empty.
	// NodeID is this node's identity — its peer-facing TCP address, as the
	// other nodes should dial it — and must appear in Peers, the full
	// member list every node and client builds the placement ring from.
	// Cluster mode requires a DataDir: replication is WAL shipping.
	NodeID string
	Peers  []string
	// Replicas is the placement width: each session lives on this many
	// nodes (leader + followers). Default: min(3, len(Peers)).
	Replicas int
	// RepHeartbeat is the shipper's heartbeat cadence while a follower is
	// caught up; follower staleness has this resolution. Default 250ms.
	RepHeartbeat time.Duration
	// RepReadTimeout bounds the gap between leader frames on a follower's
	// replication stream — the leader-death detector. Default 2s.
	RepReadTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 30 * time.Second
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = 5 * time.Minute
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = time.Minute
	}
	if c.RetryMin <= 0 {
		c.RetryMin = 50 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 5 * time.Second
	}
	if c.FS == nil {
		c.FS = fault.OS()
	}
	if len(c.Peers) > 0 {
		if c.Replicas <= 0 {
			if c.Replicas = 3; len(c.Peers) < 3 {
				c.Replicas = len(c.Peers)
			}
		}
		if c.RepHeartbeat <= 0 {
			c.RepHeartbeat = 250 * time.Millisecond
		}
		if c.RepReadTimeout <= 0 {
			c.RepReadTimeout = 2 * time.Second
		}
	}
	return c
}

// Server is a kcoverd instance.
type Server struct {
	cfg     Config
	metrics Metrics
	ring    *replica.Ring // nil outside cluster mode; set once in Start
	ovs     *overseer     // nil without a memory budget (see oversub.go)

	mu       sync.Mutex
	sessions map[string]*session
	creating map[string]chan struct{} // names being built outside mu
	leaders  map[string]string        // failover overrides: session → leader node ID
	closed   bool
	tcpLn    net.Listener
	httpSrv  *http.Server
	httpLn   net.Listener
	conns    map[net.Conn]struct{}

	connWG   sync.WaitGroup
	acceptWG sync.WaitGroup

	ckptStop chan struct{}
	ckptWG   sync.WaitGroup
}

// New builds a server; call Start (or ServeTCP with your own listener)
// to begin accepting.
func New(cfg Config) *Server {
	s := &Server{
		cfg:      cfg.withDefaults(),
		sessions: make(map[string]*session),
		creating: make(map[string]chan struct{}),
		leaders:  make(map[string]string),
		conns:    make(map[net.Conn]struct{}),
	}
	s.metrics.start = time.Now()
	if s.cfg.MemBudget > 0 && s.cfg.DataDir != "" {
		s.ovs = newOverseer(s)
	}
	return s
}

// listSessions snapshots the live session set. Callers touch the
// sessions only after s.mu is released: a session's lifecycle lock can be
// held through an eviction's disk I/O, and holding s.mu across it would
// stall every session lookup on the server.
func (s *Server) listSessions() []*session {
	s.mu.Lock()
	defer s.mu.Unlock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	return sessions
}

// Metrics exposes the live counters (read with atomic loads).
func (s *Server) Metrics() *Metrics { return &s.metrics }

// Start listens on tcpAddr for the ingest protocol and, when httpAddr is
// non-empty, on httpAddr for the HTTP endpoint, then serves both in
// background goroutines until Shutdown.
func (s *Server) Start(tcpAddr, httpAddr string) error {
	if len(s.cfg.Peers) > 0 {
		if s.cfg.DataDir == "" {
			return errors.New("server: cluster mode requires a data dir (replication ships the WAL)")
		}
		if s.cfg.NodeID == "" {
			return errors.New("server: cluster mode requires a node id")
		}
		ring, err := replica.NewRing(s.cfg.Peers, 0)
		if err != nil {
			return err
		}
		member := false
		for _, p := range ring.Members() {
			if p == s.cfg.NodeID {
				member = true
				break
			}
		}
		if !member {
			return fmt.Errorf("server: node id %q is not in the peer list", s.cfg.NodeID)
		}
		s.ring = ring
	}
	if err := s.recover(); err != nil {
		return err
	}
	// Recovered sessions this node does not lead resume as followers,
	// reattaching the stream at the mirror's watermark.
	if s.clustered() {
		for _, sess := range s.listSessions() {
			if lead := s.leaderOf(sess.name); lead != s.cfg.NodeID {
				s.attachFollower(sess, lead)
			}
		}
	}
	ln, err := net.Listen("tcp", tcpAddr)
	if err != nil {
		return err
	}
	if s.cfg.DataDir != "" && s.cfg.CheckpointEvery > 0 {
		s.ckptStop = make(chan struct{})
		s.ckptWG.Add(1)
		go func() {
			defer s.ckptWG.Done()
			t := time.NewTicker(s.cfg.CheckpointEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					s.CheckpointAll()
				case <-s.ckptStop:
					return
				}
			}
		}()
	}
	s.mu.Lock()
	s.tcpLn = ln
	s.mu.Unlock()
	s.acceptWG.Add(1)
	go func() {
		defer s.acceptWG.Done()
		s.serveTCP(ln)
	}()
	if httpAddr != "" {
		hln, err := net.Listen("tcp", httpAddr)
		if err != nil {
			ln.Close()
			return err
		}
		srv := &http.Server{Handler: s.httpHandler()}
		s.mu.Lock()
		s.httpSrv, s.httpLn = srv, hln
		s.mu.Unlock()
		s.acceptWG.Add(1)
		go func() {
			defer s.acceptWG.Done()
			srv.Serve(hln)
		}()
	}
	return nil
}

// TCPAddr returns the ingest listener's address (useful with ":0").
func (s *Server) TCPAddr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tcpLn == nil {
		return nil
	}
	return s.tcpLn.Addr()
}

// HTTPAddr returns the HTTP listener's address, or nil when disabled.
func (s *Server) HTTPAddr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.httpLn == nil {
		return nil
	}
	return s.httpLn.Addr()
}

func (s *Server) serveTCP(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed (Shutdown) or fatal
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.metrics.Conns.Add(1)
		s.metrics.ConnsTotal.Add(1)
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				s.metrics.Conns.Add(-1)
				conn.Close()
			}()
			s.handleConn(conn)
		}()
	}
}

// handleConn runs the frame loop for one connection. Each frame read is
// bounded by ReadTimeout (a connected-but-silent peer is reaped rather
// than parking this goroutine forever) and each response write by
// WriteTimeout (a peer that stops draining cannot wedge the handler).
//
// Ingest frames are pipelined one deep: after an ingest is decoded and
// validated it is handed to the connection's apply goroutine (which runs
// the WAL fsync overlapped with the queue dispatch), and this goroutine
// immediately reads and decodes the next frame — but only while another
// frame is already buffered. A peer that waits for the ack before
// sending more gets the ack at once; a pipelining peer gets its next
// frame's socket read and decode for free under the previous batch's
// fsync. Responses stay strictly ordered because the in-flight ingest is
// always joined (and acked) before any later frame's response goes out —
// which also keeps at most one ingest applying per connection, so
// per-source sequencing behaves exactly as in the serial loop.
//
// Once a batch is answered with a transient rejection (retry or
// not-leader), the connection is parked: every later batch on it is
// answered with the retry frame and not applied. The server dedups
// on each source's highest applied sequence, and the client retires the
// connection on such a rejection and resends from the rejected batch; had
// a later pipelined batch been applied after the cause cleared, the
// horizon would pass the rejected one, and its resend would be acked as a
// duplicate without ever being applied.
func (s *Server) handleConn(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)
	scratch := make([]byte, 1<<16) // grown in place by ReadFrameInto for larger batches
	respond := func(typ byte, payload []byte) bool {
		if typ == wire.TErr {
			s.metrics.Errors.Add(1)
		}
		if typ == wire.TErrRetry {
			s.metrics.BusyRejects.Add(1)
		}
		if s.cfg.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		}
		if err := wire.WriteFrame(bw, typ, payload); err != nil {
			s.noteDeadline(err)
			return false
		}
		// Flush only when no further request is already buffered: acks
		// for a pipelined burst coalesce into one write.
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				s.noteDeadline(err)
				return false
			}
		}
		return true
	}

	// The apply goroutine runs at most one ingest at a time; jobs and
	// results alternate strictly, so neither channel needs a buffer.
	jobs := make(chan ingestJob)
	applied := make(chan error)
	go func() {
		for j := range jobs {
			applied <- s.applyIngest(j)
		}
	}()
	inflight := false
	defer func() {
		if inflight {
			<-applied
		}
		close(jobs)
	}()
	// Two column arenas ping-pong between the decoder and the in-flight
	// job, so decoding frame k+1 never scribbles on the columns batch k is
	// still dispatching from.
	var arenas [2]stream.Columns
	cur := 0
	parked := false
	ackIngest := func(err error) bool {
		typ, msg := ackFrame(err)
		if typ == wire.TErrRetry || typ == wire.TErrNotLeader {
			parked = true
		}
		return respond(typ, msg)
	}
	// join settles the in-flight ingest and acks it — in order, before
	// any later frame's response.
	join := func() bool {
		if !inflight {
			return true
		}
		inflight = false
		return ackIngest(<-applied)
	}

	for {
		if s.cfg.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		typ, payload, err := wire.ReadFrameInto(br, &scratch)
		if err != nil {
			// EOF, peer reset, deadline, or garbage — drop the connection.
			s.noteDeadline(err)
			return
		}
		s.metrics.Frames.Add(1)
		switch typ {
		case wire.TIngestSeq:
			// Decode (into the free arena) before joining: this is the
			// overlapped half. The WAL record is copied out of scratch
			// here too, so the next read may reuse it.
			job, jerr := s.prepareIngest(payload, &arenas[cur])
			if !join() {
				return
			}
			if parked {
				jerr = errParked
			}
			if jerr != nil {
				if !ackIngest(jerr) {
					return
				}
				continue
			}
			jobs <- job
			inflight = true
			cur = 1 - cur
			if br.Buffered() == 0 {
				// Nothing pipelined behind this frame: the peer may well be
				// waiting on the ack, so settle now instead of parking in
				// the next read with the response hostage.
				if !join() {
					return
				}
			}
		case wire.TCreate:
			c, derr := wire.DecodeCreate(payload)
			if !join() {
				return
			}
			if derr == nil {
				derr = s.createSession(c)
			}
			if !respond(ackFrame(derr)) {
				return
			}
		case wire.TQuery:
			name, maxStale, derr := wire.DecodeQuery(payload)
			if !join() {
				return
			}
			var res wire.Result
			if derr == nil {
				res, derr = s.querySession(name, maxStale)
			}
			if derr != nil {
				// A rehydration backlog, a degraded session mid-recovery or
				// a replica past the bound is transient: ackFrame tells the
				// client to retry rather than fail the query.
				if !respond(ackFrame(derr)) {
					return
				}
			} else if !respond(wire.TResult, res.Encode()) {
				return
			}
		case wire.TRole:
			name, derr := wire.DecodeRef(payload)
			if !join() {
				return
			}
			var info wire.RoleInfo
			if derr == nil {
				info, derr = s.SessionRole(name)
			}
			if derr != nil {
				if !respond(wire.TErr, []byte(derr.Error())) {
					return
				}
			} else if !respond(wire.TRoleInfo, info.Encode()) {
				return
			}
		case wire.TRepSubscribe:
			if !join() {
				return
			}
			// The connection becomes a one-way replication stream; this
			// handler never reads another frame from it.
			s.serveShip(conn, bw, payload)
			return
		case wire.TPing:
			if !join() {
				return
			}
			if !respond(wire.TOK, nil) {
				return
			}
		case wire.TClose:
			name, derr := wire.DecodeRef(payload)
			if !join() {
				return
			}
			if derr == nil {
				derr = s.closeSession(name)
			}
			if !respond(ackFrame(derr)) {
				return
			}
		default:
			if !join() {
				return
			}
			if !respond(wire.TErr, []byte(fmt.Sprintf("server: unknown frame type 0x%02x", typ))) {
				return
			}
		}
	}
}

// errParked rejects a sequenced batch on a parked connection (see
// handleConn).
var errParked = errors.New("server: an earlier batch on this connection was rejected; resend from it on a new connection")

// transient reports whether err is a rejection that clears by itself —
// a degraded or read-only session, the rehydration gate, a parked
// connection, a follower whose replication stream is not attached or a
// server shutting down — so the request was not applied and may be
// retried unchanged. TCP answers it with TErrRetry, HTTP with 503.
func transient(err error) bool {
	return errors.Is(err, ErrDegraded) || errors.Is(err, ErrReadOnly) || errors.Is(err, ErrOverloaded) || errors.Is(err, errParked)
}

// ackFrame is the response frame for a request's outcome: TOK, a typed
// transient or redirect rejection, or TErr.
func ackFrame(err error) (byte, []byte) {
	if err == nil {
		return wire.TOK, nil
	}
	if transient(err) {
		return wire.TErrRetry, []byte(err.Error())
	}
	var nl *notLeaderError
	if errors.As(err, &nl) {
		return wire.TErrNotLeader, wire.EncodeNotLeader(nl.leader)
	}
	return wire.TErr, []byte(err.Error())
}

// noteDeadline counts connections dropped by our own read/write
// deadlines, distinguishing a reaped hung peer from an ordinary EOF.
func (s *Server) noteDeadline(err error) {
	var nerr net.Error
	if errors.Is(err, os.ErrDeadlineExceeded) || (errors.As(err, &nerr) && nerr.Timeout()) {
		s.metrics.DeadlineReaps.Add(1)
	}
}

// createSession makes a session, idempotently: re-creating with identical
// parameters succeeds (so several generators can race to set up the same
// session), differing parameters are an error. The expensive part —
// estimator construction, the WAL open, and the fsyncs of the initial
// checkpoint, which holds the parameters and no estimator encoding — runs
// outside s.mu behind a per-name guard, so session lookups (every ingest
// and query on other connections) never block on one creation's disk
// I/O; racing creators of the same name wait for the build and then
// re-check idempotently. A create that fails publishes no session.
func (s *Server) createSession(c wire.Create) error {
	if c.Name == "" {
		return errors.New("server: empty session name")
	}
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return errors.New("server: shutting down")
		}
		if old, ok := s.sessions[c.Name]; ok {
			s.mu.Unlock()
			if old.m == c.M && old.n == c.N && old.k == c.K && old.alpha == c.Alpha && old.seed == c.Seed {
				return nil
			}
			return fmt.Errorf("server: session %q exists with different parameters", c.Name)
		}
		if pending, busy := s.creating[c.Name]; busy {
			s.mu.Unlock()
			<-pending
			continue
		}
		pending := make(chan struct{})
		s.creating[c.Name] = pending
		s.mu.Unlock()

		// In cluster mode a create lands on every placement node; the ones
		// that don't lead the session build it as a follower replica. The
		// role is set before the session is published, so no ingest can
		// slip in while the node still looks like a leader.
		followerOf := ""
		if s.clustered() {
			if lead := s.leaderOf(c.Name); lead != s.cfg.NodeID {
				followerOf = lead
			}
		}
		sess, err := s.buildSession(c)
		if err == nil && followerOf != "" {
			sess.role.Store(roleFollower)
		}

		s.mu.Lock()
		delete(s.creating, c.Name)
		aborted := false
		if err == nil {
			if s.closed {
				err = errors.New("server: shutting down")
				aborted = true
			} else {
				s.sessions[c.Name] = sess
			}
		}
		s.mu.Unlock()
		close(pending)
		if aborted {
			sess.close()
			_ = sess.dur.destroy() // best effort, as in buildSession
		}
		if err == nil && followerOf != "" {
			s.attachFollower(sess, followerOf)
		}
		if err == nil && !aborted && s.ovs != nil {
			// The newcomer's footprint may push the fleet over budget.
			s.ovs.maybeEvict()
		}
		return err
	}
}

// buildSession constructs a session plus its durability state: the WAL
// and an initial checkpoint, written from the fresh estimator before
// install starts it, so a crash before the first cadence tick still
// recovers the session (and its WAL tail). The fresh estimator has taken
// no edge, so that checkpoint holds the parameters, which rebuild it, and
// no encoding. A failed build removes the session directory, best
// effort, so no start-up recovers a session whose create failed. Runs
// with no server locks held; the caller's per-name guard keeps it single.
func (s *Server) buildSession(c wire.Create) (*session, error) {
	est, err := newEstimator(c.M, c.N, c.K, c.Alpha, c.Seed)
	if err != nil {
		return nil, err
	}
	sess := blankSession(c.Name, c.M, c.N, c.K, c.Alpha, c.Seed, s.cfg, &s.metrics)
	sess.ovs = s.ovs // before install, which charges the budget
	if s.cfg.DataDir != "" {
		if sess.dur, err = openDurability(s.cfg.DataDir, c.Name, s.cfg.WALSegmentBytes, s.cfg.WALNoSync, s.cfg.FS); err != nil {
			est.Close()
			return nil, err
		}
		if err := sess.writeCheckpoint(est, sess.dur.wal.LastPos(), nil, &s.metrics, time.Now()); err != nil {
			est.Close()
			_ = sess.dur.destroy() // best effort: err fails the create either way
			return nil, err
		}
	}
	sess.install(est, nil)
	return sess, nil
}

// recover rebuilds every session found under the data dir: snapshot
// restore plus WAL tail replay. Called by Start before listening, so a
// client reconnecting after a crash finds its sessions (and every batch
// the old process acknowledged) already in place.
func (s *Server) recover() error {
	if s.cfg.DataDir == "" {
		return nil
	}
	fsys := s.cfg.FS
	if _, err := fsys.Stat(s.cfg.DataDir); os.IsNotExist(err) {
		if err := fsys.MkdirAll(s.cfg.DataDir, 0o755); err != nil {
			return err
		}
		// The new directory's entry lives in its parent.
		if err := fsys.SyncDir(filepath.Dir(s.cfg.DataDir)); err != nil {
			return err
		}
	}
	entries, err := fsys.ReadDir(s.cfg.DataDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(s.cfg.DataDir, e.Name())
		sess, err := recoverSession(dir, s.cfg, &s.metrics)
		if err != nil {
			return err
		}
		if sess == nil {
			// No checkpoint: a crash between directory creation and the
			// initial checkpoint. Nothing acknowledged lived here (every
			// session checkpoints before it is published), so the directory
			// is unreachable garbage — reclaim it rather than let dead WAL
			// segments accrete across restarts.
			if rmErr := removeSessionDir(fsys, dir); rmErr == nil {
				s.metrics.OrphansSwept.Add(1)
			}
			continue
		}
		sess.ovs = s.ovs
		if s.ovs != nil {
			s.ovs.residentBytes.Add(sess.residentBytes.Load())
		}
		s.mu.Lock()
		s.sessions[sess.name] = sess
		s.mu.Unlock()
	}
	if s.ovs != nil {
		// A fleet larger than the budget must not come back fully hydrated.
		s.ovs.maybeEvict()
	}
	return nil
}

// CheckpointAll snapshots every live session, returning the first error.
// Also reachable over HTTP as /checkpoint. A failed checkpoint degrades
// its session: the snapshot write shares the disk with the WAL, and a
// disk that cannot take a checkpoint will soon fail appends too — better
// to stop acking now and let the recovery loop probe for the fault
// clearing.
func (s *Server) CheckpointAll() error {
	var first error
	for _, sess := range s.listSessions() {
		if err := sess.checkpoint(&s.metrics); err != nil {
			s.metrics.CheckpointFailures.Add(1)
			sess.degrade(err)
			if first == nil {
				first = err
			}
		}
	}
	if s.ovs != nil {
		// Checkpoints refresh every resident footprint (sessions grow
		// between cadence ticks); re-enforce the budget on the new totals.
		s.ovs.maybeEvict()
	}
	return first
}

func (s *Server) session(name string) (*session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		// Dying (Abort/Shutdown tears the session map down before the
		// last connections unwind): a permanent "no session" here would
		// poison a client whose batch is about to be replayed against
		// our successor — something a real SIGKILL could never do, since
		// the process would be gone before it could answer. Reject as
		// transient instead; the client parks the batch and resends it
		// after reconnecting.
		return nil, fmt.Errorf("server: %w: shutting down", ErrDegraded)
	}
	sess, ok := s.sessions[name]
	if !ok {
		return nil, fmt.Errorf("server: no session %q", name)
	}
	return sess, nil
}

// readOnly reports the server-wide disk-full mode: while any session is
// degraded by ENOSPC, every ingest is rejected (more WAL writes would
// deepen the hole) and queries keep flowing.
func (s *Server) readOnly() error {
	if s.metrics.DiskFullSessions.Load() > 0 {
		return fmt.Errorf("server: %w: disk full, ingest rejected until space frees", ErrReadOnly)
	}
	return nil
}

// ingestJob is one decoded, validated ingest waiting to be applied — the
// unit of handleConn's decode/apply overlap. cols points at one of the
// connection's ping-ponging arenas; rec is the already-copied WAL record
// (nil without durability), so nothing in the job aliases the read
// scratch.
type ingestJob struct {
	sess     *session
	cols     *stream.Columns
	rec      []byte
	source   uint64
	sequence uint64
}

// prepareIngest decodes one TIngestSeq payload into cols — IDs validated
// against the batch's declared dims by the decoder, those dims against
// the session's here — and builds the job applyIngest runs. This is the
// cheap, CPU-only half that overlaps the previous batch's fsync.
func (s *Server) prepareIngest(payload []byte, cols *stream.Columns) (ingestJob, error) {
	if err := s.readOnly(); err != nil {
		return ingestJob{}, err
	}
	j := ingestJob{cols: cols}
	name, source, seq, m, n, err := wire.DecodeIngestSeqInto(payload, cols)
	if err != nil {
		return ingestJob{}, err
	}
	sess, err := s.session(name)
	if err != nil {
		return ingestJob{}, err
	}
	if m != sess.m || n != sess.n {
		return ingestJob{}, fmt.Errorf("server: batch dims (%d,%d) != session %q dims (%d,%d)",
			m, n, name, sess.m, sess.n)
	}
	if sess.role.Load() != roleLeader {
		// Followers take writes only from the replication stream — a
		// client write here would fork the replica from the leader's log.
		// A fenced leader rejects too: its log is frozen so a follower can
		// drain the tail and take over without losing an acked batch.
		return ingestJob{}, &notLeaderError{leader: s.leaderOf(name)}
	}
	j.sess, j.source, j.sequence = sess, source, seq
	j.rec = walRecord(sess, payload)
	return j, nil
}

// applyIngest runs one prepared ingest — the WAL append overlapped with
// the queue dispatch inside the session — and settles the server-wide
// counters. An ack on its nil return means "durably logged and applied
// (or a recognized replay)".
func (s *Server) applyIngest(j ingestJob) error {
	applied, err := j.sess.ingestSeq(j.source, j.sequence, j.rec, j.cols.Sets, j.cols.Elems)
	if err != nil {
		return err
	}
	if !applied {
		s.metrics.DupBatches.Add(1)
		return nil
	}
	s.metrics.EdgesIngested.Add(int64(j.cols.Len()))
	s.metrics.Batches.Add(1)
	return nil
}

// walRecord prefixes the wire payload with its frame type, TIngestSeq,
// forming the session's WAL record. Nil when the session keeps no WAL
// (payload aliases the connection's read scratch, so the copy is also what
// makes the record safe to hand to the log).
func walRecord(sess *session, payload []byte) []byte {
	if sess.dur == nil {
		return nil
	}
	rec := make([]byte, 0, 1+len(payload))
	rec = append(rec, wire.TIngestSeq)
	return append(rec, payload...)
}

func (s *Server) closeSession(name string) error {
	s.mu.Lock()
	sess, ok := s.sessions[name]
	delete(s.sessions, name)
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("server: no session %q", name)
	}
	sess.close()
	return sess.dur.destroy()
}

// Shutdown stops the server gracefully: listeners close first, every
// session is checkpointed (so a restart recovers from the snapshot alone,
// without WAL replay), sessions drain (apply goroutines consume
// everything already queued), then remaining connections are closed. The
// context bounds the wait.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	tcpLn, httpSrv := s.tcpLn, s.httpSrv
	sessions := make([]*session, 0, len(s.sessions))
	for name, sess := range s.sessions {
		sessions = append(sessions, sess)
		delete(s.sessions, name)
	}
	s.mu.Unlock()

	if s.ckptStop != nil {
		close(s.ckptStop)
		s.ckptWG.Wait()
	}
	if tcpLn != nil {
		tcpLn.Close()
	}
	if httpSrv != nil {
		httpSrv.Shutdown(ctx)
	}
	for _, sess := range sessions {
		sess.checkpoint(&s.metrics) // best effort; WAL still has the tail
		sess.close()
		sess.dur.close()
	}

	// Connections idle-wait on reads; close them so handlers exit, then
	// wait (bounded by ctx) for everything to unwind.
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		s.acceptWG.Wait()
		close(done)
	}()
	// The final checkpoint above is not context-bounded (abandoning it
	// half-done buys nothing: the write is atomic and the WAL covers the
	// tail either way), so a large session can eat the whole budget.
	// Don't report failure for that alone — if the handlers have in fact
	// unwound, the shutdown succeeded.
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		select {
		case <-done:
			return nil
		case <-time.After(100 * time.Millisecond):
			return ctx.Err()
		}
	}
}

// Abort simulates a crash for durability tests: listeners and connections
// close immediately, with no checkpoint and no WAL truncation. Everything
// the server acknowledged must still be recoverable by a fresh Server
// starting on the same data dir. Sessions are then quiesced (in-flight
// ingests finish, apply queues drain, WAL handles close) so the dead process's
// goroutines cannot keep appending to a data dir a successor has already
// recovered from — the quiesce is bookkeeping the real SIGKILL would do
// by ceasing to exist.
func (s *Server) Abort() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	tcpLn, httpLn := s.tcpLn, s.httpLn
	conns := make([]net.Conn, 0, len(s.conns))
	for conn := range s.conns {
		conns = append(conns, conn)
	}
	sessions := make([]*session, 0, len(s.sessions))
	for name, sess := range s.sessions {
		sessions = append(sessions, sess)
		delete(s.sessions, name)
	}
	s.mu.Unlock()
	if s.ckptStop != nil {
		close(s.ckptStop)
		s.ckptWG.Wait()
	}
	if tcpLn != nil {
		tcpLn.Close()
	}
	if httpLn != nil {
		httpLn.Close()
	}
	for _, conn := range conns {
		conn.Close()
	}
	s.connWG.Wait()
	for _, sess := range sessions {
		sess.close()
		sess.dur.close()
	}
}
