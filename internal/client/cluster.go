// Cluster is the cluster-aware client for a kcoverd fleet. It routes by
// the same consistent-hash ring the servers use: a session's ingest goes
// to its placement leader and staleness-bounded queries fan out to its
// followers. Each ClusterSession owns one Client, which always dials the
// node leading the session. When the leader is lost (or a node answers
// "not leader"), the session finds the new leader and retargets its
// client there; the client's ordinary reconnect then re-creates the
// session on the new leader and resends the unacknowledged batches.
// Followers mirror the leader's dedup state, so that resend is
// deduplicated on (source, seq) exactly like a resend after any
// reconnect, and ingest stays exactly-once across a promotion.
package client

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"streamcover"
	"streamcover/internal/replica"
	"streamcover/internal/wire"
)

// ClusterNode is one fleet member: ID is the node's cluster identity (its
// peer-facing address, as configured in the server's NodeID/Peers — the
// ring hashes these, and not-leader redirects carry them), Addr is where
// this client dials the node's ingest listener. They differ when client
// traffic goes through a proxy.
type ClusterNode struct {
	ID   string
	Addr string
}

// Cluster routes sessions across a kcoverd fleet. Every session it
// creates gets a Client of its own; requests to any other node (follower
// creates, role probes, follower reads, deletes) each use a short-lived
// connection that does not redial.
type Cluster struct {
	ring     *replica.Ring
	replicas int
	opts     []Option
	nodes    map[string]string // node ID -> dial address
	order    []string          // node IDs in the caller's order

	// FailoverWait bounds how long one failover waits for some node to
	// take over as a session's leader before giving up. Promotion is a
	// control-plane action (scenario driver, operator, orchestrator), so
	// the client polls for its outcome.
	FailoverWait time.Duration

	mu       sync.Mutex
	leaders  map[string]string // session -> leader node ID (failover overrides)
	sessions []*Client         // one per ClusterSession, closed with the Cluster
	closed   bool
}

// DialCluster builds a cluster client over the fleet. replicas is the
// placement width per session (<= 0: min(3, len(nodes)), matching the
// server default). Nothing is dialed until Create, so a down node does
// not fail DialCluster. The options apply to every connection the
// Cluster makes; a session's client always redials (a caller's
// WithReconnect still tunes the attempt budget), a control connection
// never does.
func DialCluster(nodes []ClusterNode, replicas int, opts ...Option) (*Cluster, error) {
	if len(nodes) == 0 {
		return nil, errors.New("client: cluster needs at least one node")
	}
	byID := make(map[string]string, len(nodes))
	ids := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if n.ID == "" {
			return nil, errors.New("client: cluster node with empty ID")
		}
		if _, dup := byID[n.ID]; dup {
			return nil, fmt.Errorf("client: duplicate cluster node %q", n.ID)
		}
		addr := n.Addr
		if addr == "" {
			addr = n.ID
		}
		byID[n.ID] = addr
		ids = append(ids, n.ID)
	}
	if replicas <= 0 {
		replicas = min(len(nodes), 3)
	}
	ring, err := replica.NewRing(ids, 0)
	if err != nil {
		return nil, err
	}
	return &Cluster{
		ring:         ring,
		replicas:     replicas,
		opts:         opts,
		nodes:        byID,
		order:        ids,
		FailoverWait: 15 * time.Second,
		leaders:      make(map[string]string),
	}, nil
}

// Placement returns the session's placement node IDs, leader first, with
// any failover override applied.
func (cl *Cluster) Placement(name string) []string {
	ids := cl.ring.Place(name, cl.replicas)
	cl.mu.Lock()
	leader := cl.leaders[name]
	cl.mu.Unlock()
	if leader == "" {
		return ids
	}
	out := []string{leader}
	for _, id := range ids {
		if id != leader {
			out = append(out, id)
		}
	}
	return out
}

// dial connects to node id with the caller's options; redial selects a
// session's client over a control connection.
func (cl *Cluster) dial(id string, redial bool) (*Client, error) {
	addr, ok := cl.nodes[id]
	if !ok {
		return nil, fmt.Errorf("client: unknown cluster node %q", id)
	}
	opts := append([]Option{WithReconnect(0)}, cl.opts...)
	return Dial(addr, append(opts, func(c *Client) { c.reconnect = redial })...)
}

// control runs req on a short-lived connection to node id.
func (cl *Cluster) control(id string, req func(*Client) error) error {
	c, err := cl.dial(id, false)
	if err != nil {
		return err
	}
	defer c.Close()
	return req(c)
}

// Close closes every session's client.
func (cl *Cluster) Close() error {
	cl.mu.Lock()
	cl.closed = true
	sessions := cl.sessions
	cl.sessions = nil
	cl.mu.Unlock()
	var first error
	for _, c := range sessions {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Create opens the session on every node in its placement — the leader
// first, on the session's own client (it owns ingest), then the
// followers, on control connections (their servers attach replication
// appliers to the leader) — and returns a handle routed at the leader.
func (cl *Cluster) Create(name string, m, n, k int, alpha float64, seed int64) (*ClusterSession, error) {
	ids := cl.Placement(name)
	c, err := cl.dial(ids[0], true)
	if err != nil {
		return nil, fmt.Errorf("client: cluster create %q on %s: %w", name, ids[0], err)
	}
	fail := func(id string, err error) (*ClusterSession, error) {
		c.Close()
		return nil, fmt.Errorf("client: cluster create %q on %s: %w", name, id, err)
	}
	sess, err := c.Create(name, m, n, k, alpha, seed)
	if err != nil {
		return fail(ids[0], err)
	}
	for _, id := range ids[1:] {
		if err := cl.control(id, func(fc *Client) error {
			_, err := fc.Create(name, m, n, k, alpha, seed)
			return err
		}); err != nil {
			return fail(id, err)
		}
	}
	cl.mu.Lock()
	closed := cl.closed
	if !closed {
		cl.sessions = append(cl.sessions, c)
	}
	cl.mu.Unlock()
	if closed {
		return fail(ids[0], errors.New("cluster closed"))
	}
	return &ClusterSession{cl: cl, c: c, sess: sess, leaderID: ids[0]}, nil
}

// ClusterSession is a cluster-routed session handle. Like Session it is
// not safe for concurrent use; open one per goroutine.
type ClusterSession struct {
	cl       *Cluster
	c        *Client  // the session's own client, dialed at its leader
	sess     *Session // the session on c
	leaderID string
}

// Name returns the server-side session name.
func (s *ClusterSession) Name() string { return s.sess.name }

// Leader returns the node ID the session's ingest is currently routed to.
func (s *ClusterSession) Leader() string { return s.leaderID }

// maxFailovers bounds how many leader changes one operation rides out
// before giving up (each one already waits up to FailoverWait).
const maxFailovers = 3

// ride runs op, riding out leader changes: when op fails because the
// leader is gone or answered "not leader", the session fails over and op
// runs again, up to maxFailovers times.
func (s *ClusterSession) ride(op func() error) error {
	for failovers := 0; ; failovers++ {
		err := op()
		if err == nil || failovers >= maxFailovers ||
			!(errors.Is(err, ErrNotLeader) || errors.Is(err, ErrSessionClosed)) {
			return err
		}
		if err := s.failover(err); err != nil {
			return err
		}
	}
}

// Send buffers edges for ingest on the session's leader, riding out
// leader changes. Edges are fed in chunks that end on a batch boundary, so
// a send can only fail with its whole chunk framed and parked in the
// resend buffer: the redial after the failover resends it, and the retry
// sends nothing. No edge is lost or sent twice.
func (s *ClusterSession) Send(edges []streamcover.Edge) error {
	for len(edges) > 0 {
		chunk := edges[:min(len(edges), s.c.batchSize-len(s.sess.sets))]
		edges = edges[len(chunk):]
		if err := s.ride(func() error {
			err := s.sess.Send(chunk)
			chunk = nil
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// Flush pushes buffered edges and waits for every outstanding batch to be
// acknowledged by the current leader, following a promotion if the leader
// changes mid-flush.
func (s *ClusterSession) Flush() error {
	return s.ride(s.sess.Flush)
}

// Query flushes and queries the session's leader, following a promotion
// if the leader changes underneath.
func (s *ClusterSession) Query() (res Result, err error) {
	err = s.ride(func() error {
		res, err = s.sess.Query()
		return err
	})
	return res, err
}

// QueryStale reads from one of the session's followers, accepting results
// at most maxStale behind the leader. Followers are tried in placement
// order; one that is too stale (or unreachable) is skipped, and the
// leader answers if no follower qualifies. Buffered edges are flushed
// first so the caller's own writes are at least leader-visible.
func (s *ClusterSession) QueryStale(maxStale time.Duration) (Result, error) {
	if err := s.Flush(); err != nil {
		return Result{}, err
	}
	var res Result
	var lastErr error
	for _, id := range s.cl.Placement(s.sess.name) {
		if id == s.leaderID {
			continue
		}
		err := s.cl.control(id, func(c *Client) (err error) {
			res, err = c.QueryStale(s.sess.name, maxStale)
			return err
		})
		if err == nil {
			return res, nil
		}
		lastErr = err
	}
	res, err := s.c.QueryStale(s.sess.name, maxStale)
	if err != nil && lastErr != nil {
		return Result{}, fmt.Errorf("%w (followers: %v)", err, lastErr)
	}
	return res, err
}

// Role returns the current leader's view of the session's role.
func (s *ClusterSession) Role() (wire.RoleInfo, error) {
	return s.c.Role(s.sess.name)
}

// CloseSession flushes, deletes the session on every placement node and
// closes the session's client.
func (s *ClusterSession) CloseSession() error {
	if err := s.Flush(); err != nil {
		return err
	}
	var first error
	for _, id := range s.cl.Placement(s.sess.name) {
		err := s.cl.control(id, func(c *Client) error {
			return c.Session(s.sess.name).CloseSession()
		})
		if err != nil && first == nil {
			first = err
		}
	}
	s.c.Close()
	return first
}

// failover finds the session's leader and retargets the session's client
// at it. Nothing moves between clients: the client's next operation
// redials, re-creates the session on the new leader and resends the
// unacknowledged batches, deduplicated there on (source, seq). prev is
// the error that triggered the failover, kept for the give-up message.
func (s *ClusterSession) failover(prev error) error {
	deadline := time.Now().Add(s.cl.FailoverWait)
	hint := s.c.LeaderHint()
	for {
		id, err := s.cl.findLeader(s.sess.name, s.leaderID, hint)
		if err == nil {
			s.c.retarget(s.cl.nodes[id])
			s.leaderID = id
			s.cl.mu.Lock()
			s.cl.leaders[s.sess.name] = id
			s.cl.mu.Unlock()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("client: no leader for session %q within %v (%v; trigger: %w)",
				s.sess.name, s.cl.FailoverWait, err, prev)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// findLeader polls the fleet for a node that reports itself leader of the
// session: the redirect hint first, then placement order, then every
// other node, with the node we are failing away from tried last (it may
// have recovered). Followers' role answers name their leader, and those
// names join the candidate queue.
func (cl *Cluster) findLeader(name, avoid, hint string) (string, error) {
	queue := make([]string, 0, len(cl.order)+2)
	if hint != "" {
		queue = append(queue, hint)
	}
	queue = append(queue, cl.Placement(name)...)
	queue = append(queue, cl.order...)
	seen := map[string]bool{}
	var lastErr error
	probe := func(id string) (bool, []string) {
		var ri wire.RoleInfo
		err := cl.control(id, func(c *Client) (err error) {
			ri, err = c.Role(name)
			return err
		})
		if err != nil {
			lastErr = err
			return false, nil
		}
		if ri.Role == wire.RoleLeader {
			return true, nil
		}
		if ri.LeaderAddr != "" {
			return false, []string{ri.LeaderAddr}
		}
		return false, nil
	}
	for i := 0; i < len(queue); i++ {
		id := queue[i]
		if seen[id] || id == avoid {
			continue
		}
		seen[id] = true
		ok, more := probe(id)
		if ok {
			return id, nil
		}
		queue = append(queue, more...)
	}
	if avoid != "" && !seen[avoid] {
		if ok, _ := probe(avoid); ok {
			return avoid, nil
		}
	}
	return "", fmt.Errorf("client: no node reports leadership of session %q (last: %v)", name, lastErr)
}
