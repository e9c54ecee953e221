// Package client is the Go client for kcoverd (internal/server). It wraps
// dialing, session setup, batched edge ingest and queries behind a small
// API:
//
//	c, _ := client.Dial(addr)
//	sess, _ := c.Create("crawl", m, n, k, alpha, seed)
//	sess.Send(edges)   // buffers; flushes full batches automatically
//	res, _ := sess.Query()
//
// Ingest is pipelined: Send writes full batches without waiting for acks,
// a background reader matches the server's strictly ordered responses to
// outstanding requests, and the bounded in-flight window (WithMaxPending)
// plus each server session's bounded apply queue give end-to-end
// backpressure. Batch errors surface on the next Send, Flush or Query.
//
// Every batch is sequenced: the client stamps it with its random source
// identity and a per-session sequence number (TIngestSeq) and keeps it
// buffered until the server acknowledges it. With WithReconnect the
// client redials on connection loss with exponential backoff, re-creates
// its sessions (idempotent server-side) and resends the unacknowledged
// batches; the server deduplicates on (source, seq), so ingestion stays
// exactly-once even when the loss was a server crash and the ack — not
// the batch — is what went missing. That replay is the client's only
// resend path: a ClusterSession (cluster.go) rides out a failover by
// pointing its own client at the new leader, whose redial resends there.
//
// Batches go over the wire in the columnar MKC2 layout: Send lays edges
// straight into set-ID and element-ID columns, and the encoder
// memcpy-appends those columns into the frame — the server's decoder
// hands them to the session's estimator with no per-edge transform at
// either end.
//
// Errors caused by the far end going away wrap ErrSessionClosed, so
// callers can tell "the server hung up" from application errors.
package client

import (
	"bufio"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"streamcover"
	"streamcover/internal/wire"
)

// ErrSessionClosed is wrapped into every error caused by the server going
// away mid-conversation — a shutdown, a crash, or a network drop — so
// callers can distinguish the far end hanging up from protocol or
// application errors with errors.Is, and decide to redial (or let
// WithReconnect do it for them).
var ErrSessionClosed = errors.New("client: connection closed by server")

// ErrServerBusy is wrapped into errors caused by the server's transient
// rejection (wire.TErrRetry): a degraded or read-only server refused the
// work without applying it. Sequenced batches hit by it stay parked in
// the resend buffer and are replayed after backoff, so ingest remains
// exactly-once across the busy window; Flush keeps retrying until the
// server recovers. Callers seeing it from a round-trip can simply retry.
var ErrServerBusy = errors.New("client: server busy (transient, retry)")

// ErrNotLeader is wrapped into errors caused by a wire.TErrNotLeader
// rejection: the node is a follower and will not take writes for the
// session. Sequenced batches hit by it stay parked in the resend buffer
// (the follower did not apply them), and the client fails fast instead of
// redialing the same node — re-routing is a placement decision, made by
// the Cluster wrapper (or the caller) rather than the connection loop.
var ErrNotLeader = errors.New("client: node is not the session leader")

// wrapLost tags a transport error as a lost-connection error exactly once.
func wrapLost(err error) error {
	if errors.Is(err, ErrSessionClosed) {
		return err
	}
	return fmt.Errorf("%w (%v)", ErrSessionClosed, err)
}

// Result is a queried coverage estimate, mirroring streamcover.Result
// plus the server-side edge count: the TResult payload as decoded.
type Result = wire.Result

// Option customizes a Client.
type Option func(*Client)

// WithBatchSize sets how many edges Send accumulates before writing one
// ingest frame (default 4096).
func WithBatchSize(n int) Option {
	return func(c *Client) {
		if n > 0 {
			c.batchSize = n
		}
	}
}

// WithMaxPending bounds the number of unacknowledged frames in flight
// (default 64). Smaller values tighten client memory and backpressure;
// larger values hide more network latency. It also bounds the resend
// buffer: a sequenced batch occupies a window slot until acked.
func WithMaxPending(n int) Option {
	return func(c *Client) {
		if n > 0 {
			c.maxPending = n
		}
	}
}

// WithReconnect makes the client redial with exponential backoff when the
// connection is lost, re-create its sessions and resend unacknowledged
// sequenced batches. maxAttempts bounds one reconnect episode (<= 0
// keeps the default of 6); when exhausted the client fails permanently.
func WithReconnect(maxAttempts int) Option {
	return func(c *Client) {
		c.reconnect = true
		if maxAttempts > 0 {
			c.attempts = maxAttempts
		}
	}
}

// WithBackoff overrides the reconnect backoff bounds (defaults 50ms, 2s).
// The first redial is immediate; later ones double from min up to max.
func WithBackoff(min, max time.Duration) Option {
	return func(c *Client) {
		if min > 0 {
			c.backoffMin = min
		}
		if max >= min && max > 0 {
			c.backoffMax = max
		}
	}
}

// WithAckObserver registers a callback invoked once per acknowledged
// sequenced batch with the batch's edge count and its client-observed
// latency: first write to server ack, including any busy-park, backoff,
// reconnect and resend in between — the latency an application actually
// experiences, which is what the kcoverload harness reports percentiles
// of. The callback runs on the connection's reader goroutine and must not
// call back into the client.
func WithAckObserver(fn func(edges int, d time.Duration)) Option {
	return func(c *Client) { c.ackObs = fn }
}

// WithFlushInterval starts a background flusher that pushes any frames
// sitting in the write buffer to the wire every d. By default frames are
// buffered until the pipeline window fills or a round trip forces them
// out — right for bulk throughput, but a paced (open-loop) sender that
// trickles batches below the window size would otherwise park them in
// the buffer indefinitely, and with them the acks a latency measurement
// needs. A few milliseconds is a good d; flushing an empty buffer is a
// no-op, so the ticker costs nothing during bulk sends.
func WithFlushInterval(d time.Duration) Option {
	return func(c *Client) {
		if d > 0 {
			c.flushEvery = d
		}
	}
}

// WithDialTimeout bounds each TCP dial (default: no bound beyond the
// OS's). It applies to the initial Dial and to every reconnect attempt.
func WithDialTimeout(d time.Duration) Option {
	return func(c *Client) {
		if d > 0 {
			c.dialTimeout = d
		}
	}
}

// WithOpTimeout bounds each network operation against the server: writes
// get a write deadline, and round-trip requests (create, ping, query,
// close) fail if no response arrives within d. A timed-out operation
// marks the connection lost — the server may be wedged or the link dead —
// so under WithReconnect the client redials rather than hanging forever
// on a silent peer. Default: no timeout.
func WithOpTimeout(d time.Duration) Option {
	return func(c *Client) {
		if d > 0 {
			c.opTimeout = d
		}
	}
}

// Client is one connection to a kcoverd server (redialed transparently
// under WithReconnect). It is safe for concurrent use; each Session's
// buffer is owned by its caller.
type Client struct {
	addr        string
	batchSize   int
	maxPending  int
	reconnect   bool
	attempts    int
	backoffMin  time.Duration
	backoffMax  time.Duration
	dialTimeout time.Duration
	opTimeout   time.Duration
	flushEvery  time.Duration                    // 0: flush only on window-full/round-trip
	flushStop   chan struct{}                    // closes with the client, stopping the flusher
	ackObs      func(edges int, d time.Duration) // per-acked-batch latency callback
	source      uint64                           // random nonzero identity stamped on every batch

	mu     sync.Mutex // serializes frame writes, connection state, reconnects
	cn     *netConn   // current connection epoch; failed epochs are replaced
	closed bool
	fatal  error // sticky until retarget: reconnect disabled or exhausted

	// payloadPool recycles sequenced-batch payload buffers: a payload
	// lives in the resend deque from encode until the server's ack, then
	// comes back here for the next encode instead of the garbage collector.
	payloadPool sync.Pool

	amu        sync.Mutex // leaf lock: session registry, seq counters, unacked deques
	states     map[string]*sessionState
	asyncErr   error  // first error the server reported for a pipelined batch
	leaderHint string // last redirect carried by a TErrNotLeader rejection
}

// sessionState is the client-side durable view of one named session: the
// create parameters (replayed on reconnect) and the sequenced batches the
// server has not yet acknowledged (resent on reconnect).
type sessionState struct {
	create  wire.Create
	nextSeq uint64
	unacked []seqBatch // in sequence order; acks pop the front
}

type seqBatch struct {
	seq     uint64
	payload []byte // complete TIngestSeq payload, kept until acked
	edges   int
	sentAt  time.Time // first write; resends keep the original stamp
}

// netConn is one connection epoch: socket, write buffer, and the queue
// pairing requests with the server's in-order responses.
type netConn struct {
	c          net.Conn
	bw         *bufio.Writer
	pending    chan waiter
	readerDone chan struct{}
	opTimeout  time.Duration

	errMu   sync.Mutex
	lostErr error
}

// armWriteDeadline applies the per-operation write deadline, if any,
// ahead of a frame write or buffer flush.
func (cn *netConn) armWriteDeadline() {
	if cn.opTimeout > 0 {
		cn.c.SetWriteDeadline(time.Now().Add(cn.opTimeout))
	}
}

func (cn *netConn) lost(err error) {
	cn.errMu.Lock()
	if cn.lostErr == nil {
		cn.lostErr = err
	}
	cn.errMu.Unlock()
}

// fail records a transport error as the epoch's loss and returns the
// epoch's first recorded cause. When the reader retires the epoch on a
// busy rejection, it closes the socket under any concurrent write; the
// writer then reports that rejection, which Flush and the reconnect loop
// retry, rather than the closed-socket error it caused.
func (cn *netConn) fail(err error) error {
	cn.lost(wrapLost(err))
	return cn.err()
}

func (cn *netConn) err() error {
	cn.errMu.Lock()
	defer cn.errMu.Unlock()
	return cn.lostErr
}

func (cn *netConn) failed() bool { return cn.err() != nil }

// waiter matches one outstanding request to its in-order response. ch is
// set for round-trip requests; ack for sequenced ingest (called with nil
// on TOK, the server's error on TErr).
type waiter struct {
	ch  chan response
	ack func(error)
}

type response struct {
	typ     byte
	payload []byte
	err     error
}

// newSource draws the client's random nonzero identity. The (source, seq)
// pair is how the server recognizes a replayed batch.
func newSource() uint64 {
	var b [8]byte
	for i := 0; i < 4; i++ {
		if _, err := crand.Read(b[:]); err != nil {
			break
		}
		if v := binary.LittleEndian.Uint64(b[:]); v != 0 {
			return v
		}
	}
	return uint64(time.Now().UnixNano()) | 1
}

// Dial connects to a kcoverd ingest address.
func Dial(addr string, opts ...Option) (*Client, error) {
	c := &Client{
		addr:       addr,
		batchSize:  4096,
		maxPending: 64,
		attempts:   6,
		backoffMin: 50 * time.Millisecond,
		backoffMax: 2 * time.Second,
		source:     newSource(),
		states:     make(map[string]*sessionState),
	}
	for _, o := range opts {
		o(c)
	}
	cn, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.cn = cn
	if c.flushEvery > 0 {
		c.flushStop = make(chan struct{})
		go c.flushLoop(c.flushStop)
	}
	return c, nil
}

// flushLoop is the WithFlushInterval ticker: push whatever the senders
// left in the current epoch's write buffer. A flush error is a lost
// connection, handled exactly like a failed write.
func (c *Client) flushLoop(stop <-chan struct{}) {
	t := time.NewTicker(c.flushEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
		case <-stop:
			return
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		if cn := c.cn; cn != nil && !cn.failed() && cn.bw.Buffered() > 0 {
			cn.armWriteDeadline()
			if err := cn.bw.Flush(); err != nil {
				cn.lost(wrapLost(err))
			}
		}
		c.mu.Unlock()
	}
}

func (c *Client) dial() (*netConn, error) {
	var conn net.Conn
	var err error
	if c.dialTimeout > 0 {
		conn, err = net.DialTimeout("tcp", c.addr, c.dialTimeout)
	} else {
		conn, err = net.Dial("tcp", c.addr)
	}
	if err != nil {
		return nil, err
	}
	cn := &netConn{
		c:          conn,
		bw:         bufio.NewWriterSize(conn, 1<<16),
		pending:    make(chan waiter, c.maxPending),
		readerDone: make(chan struct{}),
		opTimeout:  c.opTimeout,
	}
	go c.readLoop(cn)
	return cn, nil
}

// readLoop drains one epoch's responses, pairing each with the oldest
// waiter. On transport failure it fails the round-trip waiters but drops
// sequenced-ingest waiters silently: their batches stay in the unacked
// deques and are resent on the next epoch.
func (c *Client) readLoop(cn *netConn) {
	defer close(cn.readerDone)
	br := bufio.NewReaderSize(cn.c, 1<<16)
	scratch := make([]byte, 4096) // grown in place by ReadFrameInto for larger responses
	for {
		typ, payload, err := wire.ReadFrameInto(br, &scratch)
		if err != nil {
			cn.lost(wrapLost(err))
			for {
				select {
				case w := <-cn.pending:
					if w.ch != nil {
						w.ch <- response{err: cn.err()}
					}
				default:
					return
				}
			}
		}
		select {
		case w := <-cn.pending:
			if w.ch != nil {
				// Responses alias scratch; copy for the waiter.
				w.ch <- response{typ: typ, payload: append([]byte(nil), payload...)}
				continue
			}
			err = c.responseErr(response{typ: typ, payload: payload})
			w.ack(err)
			if typ == wire.TErrRetry || typ == wire.TErrNotLeader {
				// Transient rejection (TErrRetry): the server did NOT
				// apply the batch. The ack leaves it parked in the
				// resend deque, and the epoch is retired. The server
				// parks the connection on this answer and rejects every
				// later sequenced batch on it unapplied
				// (server.handleConn): it dedups on each source's
				// highest applied sequence, so a later batch applied
				// there would turn this one's resend into an acked
				// duplicate. Every pipelined batch behind this one is
				// therefore rejected too, and the path back to
				// exactly-once is a backoff-and-replay through the
				// normal reconnect machinery.
				//
				// Placement rejection (TErrNotLeader): the node is a
				// follower and did NOT apply the batch. Park it like a
				// busy rejection, record the redirect, and retire the
				// epoch with a non-retryable error — redialing the same
				// follower would only be rejected again, so connLocked
				// fails fast and a ClusterSession retargets the client
				// at the leader.
				cn.lost(fmt.Errorf("%w (%w)", ErrSessionClosed, err))
				cn.c.Close()
			}
		default:
			cn.lost(fmt.Errorf("client: unexpected frame 0x%02x with no request outstanding", typ))
			cn.c.Close()
			return
		}
	}
}

// notLeaderErr turns a TErrNotLeader payload into a typed error and
// records the redirect address it carries for LeaderHint.
func (c *Client) notLeaderErr(payload []byte) error {
	addr, err := wire.DecodeNotLeader(payload)
	if err != nil || addr == "" {
		return fmt.Errorf("client: %w: %s", ErrNotLeader, payload)
	}
	c.amu.Lock()
	c.leaderHint = addr
	c.amu.Unlock()
	return fmt.Errorf("client: %w (leader %s)", ErrNotLeader, addr)
}

// LeaderHint returns the redirect address carried by the most recent
// not-leader rejection, or "" if the node never redirected us.
func (c *Client) LeaderHint() string {
	c.amu.Lock()
	defer c.amu.Unlock()
	return c.leaderHint
}

func (c *Client) asyncError() error {
	c.amu.Lock()
	defer c.amu.Unlock()
	return c.asyncErr
}

// ackFunc builds the acknowledgement callback for one sequenced batch:
// pop it from the session's resend deque (acks arrive in sequence order)
// and record a server-side rejection as the sticky async error. A busy
// (transient) rejection pops nothing and poisons nothing: the batch was
// not applied and stays parked for the post-backoff replay.
func (c *Client) ackFunc(st *sessionState, seq uint64) func(error) {
	return func(serverErr error) {
		if errors.Is(serverErr, ErrServerBusy) || errors.Is(serverErr, ErrNotLeader) {
			return
		}
		var acked seqBatch
		popped := false
		c.amu.Lock()
		if len(st.unacked) > 0 && st.unacked[0].seq == seq {
			acked, popped = st.unacked[0], true
			st.unacked = st.unacked[1:]
		}
		if serverErr != nil && c.asyncErr == nil {
			c.asyncErr = serverErr
		}
		c.amu.Unlock()
		if !popped {
			return
		}
		if serverErr == nil && c.ackObs != nil && !acked.sentAt.IsZero() {
			c.ackObs(acked.edges, time.Since(acked.sentAt))
		}
		// The payload's last reader was the resend deque; recycle it.
		c.payloadPool.Put(&acked.payload)
	}
}

// payloadBuf returns a recycled sequenced-payload buffer (or nil — the
// encoders treat nil as an empty buffer and allocate).
func (c *Client) payloadBuf() []byte {
	if b, ok := c.payloadPool.Get().(*[]byte); ok {
		return (*b)[:0]
	}
	return nil
}

// connLocked returns a healthy connection, redialing (and replaying
// session state) when the current one was lost. Called with c.mu held;
// the reconnect backoff sleeps with the lock held, which is what stalls
// every other sender until the link is back.
func (c *Client) connLocked() (*netConn, error) {
	if c.closed {
		return nil, errors.New("client: closed")
	}
	if c.fatal != nil {
		return nil, c.fatal
	}
	if c.cn != nil && !c.cn.failed() {
		return c.cn, nil
	}
	var lostErr error
	if c.cn != nil {
		lostErr = c.cn.err()
		c.cn.c.Close()
		c.cn = nil
	}
	if lostErr == nil {
		lostErr = ErrSessionClosed
	}
	if !c.reconnect || errors.Is(lostErr, ErrNotLeader) {
		// A not-leader rejection is not repaired by redialing the same
		// address: fail fast even with reconnect on, and let the caller
		// (a ClusterSession's failover) retarget the client at the leader.
		c.fatal = lostErr
		return nil, c.fatal
	}
	backoff := c.backoffMin
	dialErr := lostErr
	// When the epoch died to a busy rejection the server is up but
	// shedding load; redialing instantly would just get the resends
	// rejected again, so start with one backoff sleep instead of an
	// immediate attempt.
	busy := errors.Is(lostErr, ErrServerBusy)
	for attempt := 0; attempt < c.attempts; attempt++ {
		if attempt > 0 || busy {
			time.Sleep(backoff)
			backoff *= 2
			if backoff > c.backoffMax {
				backoff = c.backoffMax
			}
		}
		cn, err := c.dial()
		if err != nil {
			dialErr = err
			continue
		}
		if err := c.reestablish(cn); err != nil {
			dialErr = err
			cn.c.Close()
			<-cn.readerDone
			continue
		}
		c.cn = cn
		return cn, nil
	}
	c.fatal = fmt.Errorf("client: reconnect to %s gave up after %d attempts (%w; last: %v)",
		c.addr, c.attempts, ErrSessionClosed, dialErr)
	return nil, c.fatal
}

// retarget points the client at addr, the node now leading its sessions:
// later dials go there, the sticky failure is cleared, and the current
// epoch is dropped, so the next operation redials and reestablish
// re-creates the sessions and resends their unacknowledged batches on the
// new leader. Nothing else moves; the source and sequence numbers stay.
func (c *Client) retarget(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addr, c.fatal = addr, nil
	if c.cn != nil {
		c.cn.c.Close()
		c.cn = nil
	}
}

// reestablish replays client state onto a fresh connection: every
// registered session is re-created (idempotent server-side), then its
// unacknowledged sequenced batches are resent verbatim. Batches the
// server had already applied before the old connection died are
// deduplicated there by (source, seq), so the replay cannot double-count.
// Called with c.mu held; cn is not yet published to other goroutines.
func (c *Client) reestablish(cn *netConn) error {
	type replay struct {
		st     *sessionState
		create []byte
		seqs   []uint64
		resend [][]byte
	}
	c.amu.Lock()
	all := make([]replay, 0, len(c.states))
	for _, st := range c.states {
		r := replay{st: st, create: st.create.Encode()}
		for _, b := range st.unacked {
			r.seqs = append(r.seqs, b.seq)
			r.resend = append(r.resend, b.payload)
		}
		all = append(all, r)
	}
	c.amu.Unlock()
	for _, r := range all {
		if err := c.roundTripOn(cn, wire.TCreate, r.create); err != nil {
			return err
		}
		for i, payload := range r.resend {
			w := waiter{ack: c.ackFunc(r.st, r.seqs[i])}
			if err := writeOn(cn, wire.TIngestSeq, payload, w); err != nil {
				return err
			}
		}
	}
	if err := cn.bw.Flush(); err != nil {
		return cn.fail(err)
	}
	return nil
}

// writeOn registers the waiter and writes one frame on a specific epoch,
// blocking when maxPending frames are unacknowledged (backpressure). The
// caller holds c.mu.
func writeOn(cn *netConn, typ byte, payload []byte, w waiter) error {
	cn.armWriteDeadline()
	select {
	case cn.pending <- w:
	default:
		// The in-flight window is full. Flush buffered frames first so
		// the server can ack them — blocking with frames stuck in our
		// own write buffer would deadlock the pipeline.
		if err := cn.bw.Flush(); err != nil {
			return cn.fail(err)
		}
		select {
		case cn.pending <- w:
		case <-cn.readerDone:
			return cn.err()
		}
	}
	if err := wire.WriteFrame(cn.bw, typ, payload); err != nil {
		return cn.fail(err)
	}
	return nil
}

// sendSequenced stamps the batch with the next sequence number, parks
// its payload in the session's resend deque, and writes it as one
// TIngestSeq frame. The deque entry is released by the server's in-order
// ack, which also recycles the payload buffer. encode builds the payload
// into a (possibly recycled) buffer once the sequence number is known —
// the number must be drawn under amu, where the deque order and the
// session's sequence counter are one atomic step.
func (c *Client) sendSequenced(st *sessionState, edges int, encode func(buf []byte, seq uint64) []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.asyncError(); err != nil {
		return err
	}
	cn, err := c.connLocked()
	// Park the batch even when no epoch could be raised: the caller's
	// buffer is discarded either way, and the next redial (after a
	// retarget, for a cluster session) resends the deque exactly once.
	c.amu.Lock()
	st.nextSeq++
	seq := st.nextSeq
	payload := encode(c.payloadBuf(), seq)
	st.unacked = append(st.unacked, seqBatch{seq: seq, payload: payload, edges: edges, sentAt: time.Now()})
	c.amu.Unlock()
	if err != nil {
		return err
	}
	err = writeOn(cn, wire.TIngestSeq, payload, waiter{ack: c.ackFunc(st, seq)})
	if err != nil && c.reconnect && errors.Is(err, ErrSessionClosed) {
		// The batch is already parked in the resend deque, so a successful
		// reconnect replays it as part of reestablish; recovering the
		// connection is all that's left to do here.
		if _, err2 := c.connLocked(); err2 != nil {
			return err2
		}
		return nil
	}
	return err
}

func (c *Client) unackedLen(st *sessionState) int {
	c.amu.Lock()
	defer c.amu.Unlock()
	return len(st.unacked)
}

// roundTripOn sends one frame on a specific epoch and waits for its
// response, with the caller holding c.mu (reconnect path only).
func (c *Client) roundTripOn(cn *netConn, typ byte, payload []byte) error {
	ch := make(chan response, 1)
	if err := writeOn(cn, typ, payload, waiter{ch: ch}); err != nil {
		return err
	}
	if err := cn.bw.Flush(); err != nil {
		return cn.fail(err)
	}
	resp, err := awaitResponse(cn, ch)
	if err != nil {
		return err
	}
	return c.responseErr(resp)
}

// responseErr maps a server's error response to the caller's error: a
// plain rejection, a transient one (ErrServerBusy) or a leader redirect.
// Any other response type is not an error.
func (c *Client) responseErr(resp response) error {
	switch resp.typ {
	case wire.TErr:
		// The payload already carries the "server:" prefix.
		return fmt.Errorf("client: %s", resp.payload)
	case wire.TErrRetry:
		return fmt.Errorf("client: %w: %s", ErrServerBusy, resp.payload)
	case wire.TErrNotLeader:
		return c.notLeaderErr(resp.payload)
	}
	return nil
}

// awaitResponse waits for the reader to deliver, guarding against the
// epoch dying with the waiter still queued. With WithOpTimeout set, a
// response that never comes — a wedged server holding the socket open —
// fails the epoch instead of hanging the caller forever.
func awaitResponse(cn *netConn, ch chan response) (response, error) {
	var timeout <-chan time.Time
	if cn.opTimeout > 0 {
		t := time.NewTimer(cn.opTimeout)
		defer t.Stop()
		timeout = t.C
	}
	var resp response
	select {
	case resp = <-ch:
	case <-cn.readerDone:
		// The reader exited; it may have delivered just before.
		select {
		case resp = <-ch:
		default:
			return response{}, cn.err()
		}
	case <-timeout:
		cn.lost(fmt.Errorf("%w (no response within %v)", ErrSessionClosed, cn.opTimeout))
		cn.c.Close()
		return response{}, cn.err()
	}
	if resp.err != nil {
		return response{}, resp.err
	}
	return resp, nil
}

// roundTrip sends one frame and waits for its response, flushing first.
// Under WithReconnect a lost connection is retried on a fresh epoch (the
// redial replays session state first), since every round-trip request
// type — create, ping, query, close — is idempotent.
func (c *Client) roundTrip(typ byte, payload []byte) (response, error) {
	for attempt := 0; ; attempt++ {
		resp, err := c.roundTripOnce(typ, payload)
		if err == nil {
			return resp, nil
		}
		if !c.reconnect || attempt >= 2 || !errors.Is(err, ErrSessionClosed) {
			return response{}, err
		}
	}
}

func (c *Client) roundTripOnce(typ byte, payload []byte) (response, error) {
	ch := make(chan response, 1)
	c.mu.Lock()
	cn, err := c.connLocked()
	if err == nil {
		err = writeOn(cn, typ, payload, waiter{ch: ch})
	}
	if err == nil {
		if err = cn.bw.Flush(); err != nil {
			err = cn.fail(err)
		}
	}
	c.mu.Unlock()
	if err != nil {
		return response{}, err
	}
	resp, err := awaitResponse(cn, ch)
	if err == nil {
		err = c.responseErr(resp)
	}
	if err != nil {
		return response{}, err
	}
	return resp, nil
}

// Create opens (or idempotently re-opens) a named session on the server
// and returns a handle to it. The session is registered for replay: a
// reconnect re-creates it before resending any of its batches.
func (c *Client) Create(name string, m, n, k int, alpha float64, seed int64) (*Session, error) {
	create := wire.Create{Name: name, M: m, N: n, K: k, Alpha: alpha, Seed: seed}
	if _, err := c.roundTrip(wire.TCreate, create.Encode()); err != nil {
		return nil, err
	}
	c.amu.Lock()
	st := c.states[name]
	if st == nil {
		st = &sessionState{create: create}
		c.states[name] = st
	}
	c.amu.Unlock()
	return &Session{c: c, name: name, m: m, n: n, st: st}, nil
}

// Session attaches to an existing session for querying (dims unknown, so
// Send is not available until set via Create).
func (c *Client) Session(name string) *Session {
	return &Session{c: c, name: name, m: -1, n: -1}
}

// Role asks the server for the session's replication role: leader or
// follower, the leader's identity, and the follower's applied position
// and staleness.
func (c *Client) Role(name string) (wire.RoleInfo, error) {
	resp, err := c.roundTrip(wire.TRole, wire.EncodeRef(name))
	if err != nil {
		return wire.RoleInfo{}, err
	}
	if resp.typ != wire.TRoleInfo {
		return wire.RoleInfo{}, fmt.Errorf("client: unexpected response 0x%02x to role", resp.typ)
	}
	return wire.DecodeRoleInfo(resp.payload)
}

// QueryStale queries a session with an explicit staleness bound. A leader
// always answers; a follower answers only if its replica has proven
// itself no further than maxStale behind its leader — otherwise the
// server answers with a transient rejection that surfaces as
// ErrServerBusy, and the caller can fall back to the leader.
func (c *Client) QueryStale(name string, maxStale time.Duration) (Result, error) {
	resp, err := c.roundTrip(wire.TQuery, wire.EncodeQuery(name, maxStale))
	if err != nil {
		return Result{}, err
	}
	if resp.typ != wire.TResult {
		return Result{}, fmt.Errorf("client: unexpected response 0x%02x to query", resp.typ)
	}
	return wire.DecodeResult(resp.payload)
}

// Close flushes and closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	if c.flushStop != nil {
		close(c.flushStop)
		c.flushStop = nil
	}
	cn := c.cn
	c.cn = nil
	if cn != nil {
		cn.bw.Flush()
	}
	c.mu.Unlock()
	if cn == nil {
		return nil
	}
	err := cn.c.Close()
	<-cn.readerDone
	return err
}

// Session is a handle to one named estimation run. A Session is not safe
// for concurrent use (its batch buffers are unguarded); open one Session
// per goroutine — they may all target the same server-side session name.
type Session struct {
	c           *Client
	name        string
	m, n        int
	sets, elems []uint32      // batch buffer, already in wire column order
	st          *sessionState // nil: attached session (query only)
}

// Name returns the server-side session name.
func (s *Session) Name() string { return s.name }

// Send buffers edges for ingest, flushing a frame each time the batch
// size is reached. Errors from earlier batches surface here.
func (s *Session) Send(edges []streamcover.Edge) error {
	if s.m < 0 {
		return fmt.Errorf("client: session %q attached without dims; use Create", s.name)
	}
	for _, e := range edges {
		if int(e.Set) >= s.m {
			return fmt.Errorf("client: set id %d >= m=%d", e.Set, s.m)
		}
		if int(e.Elem) >= s.n {
			return fmt.Errorf("client: element id %d >= n=%d", e.Elem, s.n)
		}
		// Columns at buffer time: the encoder bulk-appends them with no
		// per-edge work left to do.
		s.sets = append(s.sets, e.Set)
		s.elems = append(s.elems, e.Elem)
		if len(s.sets) >= s.c.batchSize {
			if err := s.flushBatch(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flushBatch writes the buffered edges as one pipelined ingest frame.
func (s *Session) flushBatch() error {
	if len(s.sets) == 0 {
		return nil
	}
	defer func() { s.sets, s.elems = s.sets[:0], s.elems[:0] }()
	return s.c.sendSequenced(s.st, len(s.sets), func(buf []byte, seq uint64) []byte {
		return wire.EncodeIngestSeqColumns(buf, s.name, s.c.source, seq, s.sets, s.elems, s.m, s.n)
	})
}

// Flush pushes any buffered edges to the wire and then waits until every
// outstanding batch has been acknowledged, returning the first error the
// server reported. A busy (transient) rejection is not a batch error:
// under WithReconnect, Flush keeps replaying the parked batches with
// backoff until the server recovers — it only fails when the connection
// is permanently gone or the server reports a real error.
func (s *Session) Flush() error {
	if err := s.flushBatch(); err != nil {
		return err
	}
	for {
		// A ping after the pipelined batches: its in-order ack proves all
		// earlier batch responses on this epoch arrived (and were
		// error-checked).
		if _, err := s.c.roundTrip(wire.TPing, nil); err != nil {
			if s.c.reconnect && errors.Is(err, ErrServerBusy) && errors.Is(err, ErrSessionClosed) {
				// Busy-retired epoch: the redial inside the next round
				// trip backs off and replays the parked batches.
				continue
			}
			return err
		}
		if err := s.c.asyncError(); err != nil {
			return err
		}
		if s.st == nil || s.c.unackedLen(s.st) == 0 {
			return nil
		}
		// The connection died between our batches and the ping; the
		// redial resent them on a fresh epoch, so barrier again.
	}
}

// queryBusyRetries bounds Query's in-call retries of transient busy
// answers (a degraded session mid-recovery, or a rehydration backlog on
// an oversubscribed server). Past the bound the typed ErrServerBusy
// surfaces and the caller owns the retry policy.
const queryBusyRetries = 8

// Query flushes buffered edges and returns the live coverage estimate
// over everything this and every other client has fed the session, at
// any staleness (a follower answers from what it has applied).
// Transient busy rejections — the server is rehydrating an evicted
// session or repairing a degraded one — are retried with backoff a
// bounded number of times before surfacing as ErrServerBusy.
func (s *Session) Query() (Result, error) {
	if err := s.flushBatch(); err != nil {
		return Result{}, err
	}
	backoff := s.c.backoffMin
	for attempt := 0; ; attempt++ {
		res, err := s.c.QueryStale(s.name, wire.AnyStaleness)
		// Busy without a dead connection: the session exists and will
		// answer shortly; retrying here spares every caller the loop.
		if !errors.Is(err, ErrServerBusy) || errors.Is(err, ErrSessionClosed) || attempt >= queryBusyRetries {
			return res, err
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > s.c.backoffMax {
			backoff = s.c.backoffMax
		}
	}
}

// CloseSession flushes buffered edges and deletes the session server-side
// (and drops it from the client's replay registry).
func (s *Session) CloseSession() error {
	if err := s.flushBatch(); err != nil {
		return err
	}
	if _, err := s.c.roundTrip(wire.TClose, wire.EncodeRef(s.name)); err != nil {
		return err
	}
	s.c.amu.Lock()
	delete(s.c.states, s.name)
	s.c.amu.Unlock()
	return nil
}
