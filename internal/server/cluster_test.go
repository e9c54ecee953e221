package server

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"streamcover"
	"streamcover/internal/client"
	"streamcover/internal/fault"
	"streamcover/internal/snapshot"
	"streamcover/internal/wal"
	"streamcover/internal/wire"
)

const (
	cluM     = 64
	cluN     = 512
	cluK     = 4
	cluAlpha = 4.0
	cluSeed  = 9
)

// reserveAddrs grabs n distinct loopback addresses. Cluster node IDs are
// peer-dialable addresses that must be known before the servers start, so
// the test reserves ports first and hands them back for the real listens.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

func clusterNodeConfig(nodeID string, peers []string, dataDir string) Config {
	return Config{
		QueueDepth:      16,
		DataDir:         dataDir,
		WALNoSync:       true,
		CheckpointEvery: -1,
		NodeID:          nodeID,
		Peers:           peers,
		RepHeartbeat:    25 * time.Millisecond,
		RepReadTimeout:  500 * time.Millisecond,
		RetryMin:        10 * time.Millisecond,
		RetryMax:        50 * time.Millisecond,
	}
}

func startClusterNode(t *testing.T, nodeID string, peers []string) *Server {
	t.Helper()
	return startClusterServer(t, clusterNodeConfig(nodeID, peers, t.TempDir()))
}

func startClusterServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv := New(cfg)
	if err := srv.Start(cfg.NodeID, ""); err != nil {
		t.Fatalf("start cluster node %s: %v", cfg.NodeID, err)
	}
	t.Cleanup(func() { srv.Abort() })
	return srv
}

// clusterEdges generates a deterministic edge stream (splitmix64 walk).
func clusterEdges(seed uint64, count int) []streamcover.Edge {
	edges := make([]streamcover.Edge, count)
	x := seed
	for i := range edges {
		x += 0x9e3779b97f4a7c15
		z := x
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		edges[i] = streamcover.Edge{Set: uint32(z % cluM), Elem: uint32((z >> 32) % cluN)}
	}
	return edges
}

// clusterReference runs the same edges through a fault-free single-node
// in-memory server and returns its query result and state digest — the
// byte-level ground truth every replica must converge to.
func clusterReference(t *testing.T, name string, edges []streamcover.Edge) (client.Result, string) {
	t.Helper()
	srv := New(Config{QueueDepth: 16})
	if err := srv.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Abort() })
	c, err := client.Dial(srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Create(name, cluM, cluN, cluK, cluAlpha, cluSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Send(edges); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Query()
	if err != nil {
		t.Fatal(err)
	}
	digest, err := srv.SessionDigest(name)
	if err != nil {
		t.Fatal(err)
	}
	return res, digest
}

// waitClusterConverged waits until exactly one server leads the session
// and every follower's applied watermark equals the leader's WAL head,
// then returns the leader's index and head position.
func waitClusterConverged(t *testing.T, servers []*Server, name string, timeout time.Duration) (int, uint64) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var lastState string
	for time.Now().Before(deadline) {
		leaderIdx, head := -1, uint64(0)
		followers := make(map[int]uint64)
		ok := true
		for i, srv := range servers {
			ri, err := srv.SessionRole(name)
			if err != nil {
				ok = false
				lastState = fmt.Sprintf("node %d: %v", i, err)
				break
			}
			if ri.Role == wire.RoleLeader {
				if leaderIdx >= 0 {
					ok = false
					lastState = fmt.Sprintf("two leaders: %d and %d", leaderIdx, i)
					break
				}
				leaderIdx, head = i, ri.Applied
			} else {
				followers[i] = ri.Applied
			}
		}
		if ok && leaderIdx >= 0 && head > 0 {
			converged := true
			for i, applied := range followers {
				if applied != head {
					converged = false
					lastState = fmt.Sprintf("follower %d applied %d, leader head %d", i, applied, head)
				}
			}
			if converged {
				return leaderIdx, head
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("cluster never converged on %q: %s", name, lastState)
	return -1, 0
}

func requireClusterResult(t *testing.T, got, want client.Result, what string) {
	t.Helper()
	if got.Coverage != want.Coverage || got.Feasible != want.Feasible || got.Edges != want.Edges {
		t.Fatalf("%s: result (cov=%v feasible=%v edges=%d) != reference (cov=%v feasible=%v edges=%d)",
			what, got.Coverage, got.Feasible, got.Edges, want.Coverage, want.Feasible, want.Edges)
	}
	if len(got.SetIDs) != len(want.SetIDs) {
		t.Fatalf("%s: %d set IDs, reference has %d", what, len(got.SetIDs), len(want.SetIDs))
	}
	for i := range got.SetIDs {
		if got.SetIDs[i] != want.SetIDs[i] {
			t.Fatalf("%s: set IDs %v != reference %v", what, got.SetIDs, want.SetIDs)
		}
	}
}

// TestClusterThreeNodeConvergence is the replication smoke test: a
// three-node fleet ingests through the cluster client, every replica
// converges to the byte-exact state of a fault-free single-node run,
// followers answer staleness-bounded reads with the leader's numbers and
// reject both unbounded-staleness violations and direct writes.
func TestClusterThreeNodeConvergence(t *testing.T) {
	addrs := reserveAddrs(t, 3)
	servers := make([]*Server, 3)
	for i, addr := range addrs {
		servers[i] = startClusterNode(t, addr, addrs)
	}
	nodes := make([]client.ClusterNode, 3)
	for i, addr := range addrs {
		nodes[i] = client.ClusterNode{ID: addr, Addr: addr}
	}
	cl, err := client.DialCluster(nodes, 3, client.WithBatchSize(256), client.WithOpTimeout(3*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const name = "conv"
	cs, err := cl.Create(name, cluM, cluN, cluK, cluAlpha, cluSeed)
	if err != nil {
		t.Fatal(err)
	}
	edges := clusterEdges(101, 4096)
	if err := cs.Send(edges); err != nil {
		t.Fatal(err)
	}
	if err := cs.Flush(); err != nil {
		t.Fatal(err)
	}

	leaderIdx, head := waitClusterConverged(t, servers, name, 15*time.Second)
	if head == 0 {
		t.Fatal("leader WAL head is 0 after ingest")
	}

	// Byte-exact convergence: every replica's digest equals the fault-free
	// single-node reference.
	wantRes, wantDigest := clusterReference(t, name, edges)
	for i, srv := range servers {
		digest, err := srv.SessionDigest(name)
		if err != nil {
			t.Fatalf("node %d digest: %v", i, err)
		}
		if digest != wantDigest {
			t.Fatalf("node %d digest %s != reference %s", i, digest, wantDigest)
		}
	}

	// The leader's query and a follower's staleness-bounded read both
	// return the reference result.
	res, err := cs.Query()
	if err != nil {
		t.Fatal(err)
	}
	requireClusterResult(t, res, wantRes, "leader query")
	fres, err := cs.QueryStale(5 * time.Second)
	if err != nil {
		t.Fatalf("follower stale query: %v", err)
	}
	requireClusterResult(t, fres, wantRes, "follower stale query")

	// Direct follower access: a 1ns staleness bound is rejected as
	// transient (the watermark is only re-proven at heartbeat cadence),
	// and a write is redirected at the leader.
	followerIdx := (leaderIdx + 1) % 3
	fc, err := client.Dial(addrs[followerIdx], client.WithBatchSize(4))
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if _, err := fc.QueryStale(name, time.Nanosecond); !errors.Is(err, client.ErrServerBusy) {
		t.Fatalf("1ns-bound follower read: err = %v, want ErrServerBusy", err)
	}
	fsess, err := fc.Create(name, cluM, cluN, cluK, cluAlpha, cluSeed)
	if err != nil {
		t.Fatalf("idempotent create on follower: %v", err)
	}
	if err := fsess.Send(clusterEdges(7, 8)); err != nil {
		t.Fatalf("buffering on follower session: %v", err)
	}
	err = fsess.Flush()
	if !errors.Is(err, client.ErrNotLeader) {
		t.Fatalf("write to follower: err = %v, want ErrNotLeader", err)
	}
	if hint := fc.LeaderHint(); hint != addrs[leaderIdx] {
		t.Fatalf("follower redirect hint %q, want leader %q", hint, addrs[leaderIdx])
	}
}

// TestClusterFailoverExactlyOnce kills the leader with an unacked batch
// in flight — accepted, but parked before its WAL append, with the ack
// path already severed — promotes the most-caught-up follower, and
// requires the cluster client to re-route and resend so that the fleet
// ends byte-identical to a fault-free single-node run over every batch
// exactly once.
func TestClusterFailoverExactlyOnce(t *testing.T) {
	addrs := reserveAddrs(t, 3)
	servers := make([]*Server, 3)
	for i, addr := range addrs {
		servers[i] = startClusterNode(t, addr, addrs)
	}
	// Client traffic goes through per-node proxies so the leader's ack
	// path can be cut independently of the (direct) replication links.
	proxies := make([]*fault.Proxy, 3)
	nodes := make([]client.ClusterNode, 3)
	for i, addr := range addrs {
		p, err := fault.NewProxy(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		proxies[i] = p
		nodes[i] = client.ClusterNode{ID: addr, Addr: p.Addr()}
	}
	const batch = 128
	cl, err := client.DialCluster(nodes, 3,
		client.WithBatchSize(batch),
		// Short enough that the severed ack path is detected well inside
		// FailoverWait; long enough that creates and pings survive the
		// race detector's overhead.
		client.WithOpTimeout(time.Second),
		client.WithReconnect(2),
		client.WithBackoff(10*time.Millisecond, 40*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.FailoverWait = 20 * time.Second

	const name = "failover"
	cs, err := cl.Create(name, cluM, cluN, cluK, cluAlpha, cluSeed)
	if err != nil {
		t.Fatal(err)
	}
	pre := clusterEdges(33, 10*batch)
	if err := cs.Send(pre); err != nil {
		t.Fatal(err)
	}
	if err := cs.Flush(); err != nil {
		t.Fatal(err)
	}
	leaderIdx, _ := waitClusterConverged(t, servers, name, 15*time.Second)
	if got := cs.Leader(); got != addrs[leaderIdx] {
		t.Fatalf("client routes to %q, servers say leader is %q", got, addrs[leaderIdx])
	}

	// Park the next sequenced batch on the leader after it is accepted
	// (dedup-claimed) but before its WAL append — in flight, unacked.
	parked := make(chan struct{})
	release := make(chan struct{})
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()
	var once sync.Once
	testHookAfterAccept = func(source, seq uint64) {
		once.Do(func() {
			close(parked)
			<-release
		})
	}
	defer func() { testHookAfterAccept = nil }()

	tail := clusterEdges(77, batch)
	flushDone := make(chan error, 1)
	go func() {
		if err := cs.Send(tail); err != nil {
			flushDone <- err
			return
		}
		flushDone <- cs.Flush()
	}()
	<-parked

	// Sever the ack path deterministically, then let the leader finish
	// applying and die. The ack can no longer reach the client, so the
	// batch stays parked in its resend buffer — whether the followers
	// received the entry before the crash is exactly the race the dedup
	// horizon must absorb.
	proxies[leaderIdx].Partition(true)
	proxies[leaderIdx].DropAll()
	released = true
	close(release)
	servers[leaderIdx].Abort()

	// Control plane: promote the most-caught-up survivor, retarget the
	// other.
	survivors := []int{}
	for i := range servers {
		if i != leaderIdx {
			survivors = append(survivors, i)
		}
	}
	promoteIdx := survivors[0]
	var best uint64
	for _, i := range survivors {
		if ri, err := servers[i].SessionRole(name); err == nil && ri.Applied > best {
			best, promoteIdx = ri.Applied, i
		}
	}
	if err := servers[promoteIdx].Promote(name); err != nil {
		t.Fatalf("promote node %d: %v", promoteIdx, err)
	}
	for _, i := range survivors {
		if i != promoteIdx {
			servers[i].SetSessionLeader(name, addrs[promoteIdx])
		}
	}

	select {
	case err := <-flushDone:
		if err != nil {
			t.Fatalf("flush across failover: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("flush never completed after promotion")
	}

	// The fleet must end byte-identical to a fault-free single-node run
	// over all eleven batches, each applied exactly once.
	all := append(append([]streamcover.Edge{}, pre...), tail...)
	wantRes, wantDigest := clusterReference(t, name, all)
	alive := []*Server{servers[survivors[0]], servers[survivors[1]]}
	waitClusterConverged(t, alive, name, 15*time.Second)
	for _, i := range survivors {
		digest, err := servers[i].SessionDigest(name)
		if err != nil {
			t.Fatalf("node %d digest: %v", i, err)
		}
		if digest != wantDigest {
			t.Fatalf("node %d digest %s != fault-free reference %s (exactly-once violated)", i, digest, wantDigest)
		}
	}
	res, err := cs.Query()
	if err != nil {
		t.Fatal(err)
	}
	requireClusterResult(t, res, wantRes, "post-failover query")
	if got := servers[promoteIdx].Metrics().RepPromotions.Load(); got != 1 {
		t.Fatalf("promotions on new leader = %d, want 1", got)
	}
	if got := cs.Leader(); got != addrs[promoteIdx] {
		t.Fatalf("client routes to %q after failover, want %q", got, addrs[promoteIdx])
	}
}

// TestClusterFenceDrainPromote exercises the orderly failover primitive:
// a fenced leader rejects new writes with the not-leader redirect while
// its replication streams keep shipping the frozen tail, a follower
// drains to the fenced head, and promoting it loses nothing — the final
// state is byte-equal to a fault-free single-node run. A second round
// moves the session on again (A→B→C), so one ClusterSession's client is
// retargeted twice: once after its leader dies, once on a live fenced
// leader's redirect.
func TestClusterFenceDrainPromote(t *testing.T) {
	addrs := reserveAddrs(t, 3)
	servers := make([]*Server, 3)
	for i, addr := range addrs {
		servers[i] = startClusterNode(t, addr, addrs)
	}
	nodes := make([]client.ClusterNode, 3)
	for i, addr := range addrs {
		nodes[i] = client.ClusterNode{ID: addr, Addr: addr}
	}
	cl, err := client.DialCluster(nodes, 3,
		client.WithBatchSize(256),
		client.WithOpTimeout(2*time.Second),
		client.WithBackoff(10*time.Millisecond, 40*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.FailoverWait = 15 * time.Second

	const name = "fence"
	cs, err := cl.Create(name, cluM, cluN, cluK, cluAlpha, cluSeed)
	if err != nil {
		t.Fatal(err)
	}
	pre := clusterEdges(55, 4096)
	if err := cs.Send(pre); err != nil {
		t.Fatal(err)
	}
	if err := cs.Flush(); err != nil {
		t.Fatal(err)
	}
	leaderIdx, _ := waitClusterConverged(t, servers, name, 15*time.Second)

	if err := servers[leaderIdx].Fence(name); err != nil {
		t.Fatalf("fence: %v", err)
	}
	// The fenced leader stops claiming the role and rejects direct writes.
	ri, err := servers[leaderIdx].SessionRole(name)
	if err != nil {
		t.Fatal(err)
	}
	if ri.Role == wire.RoleLeader {
		t.Fatal("fenced leader still reports RoleLeader")
	}
	head := ri.Applied
	if head == 0 {
		t.Fatal("fenced head is 0 after ingest")
	}
	dc, err := client.Dial(addrs[leaderIdx], client.WithBatchSize(4))
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	dsess, err := dc.Create(name, cluM, cluN, cluK, cluAlpha, cluSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := dsess.Send(clusterEdges(3, 8)); err != nil {
		t.Fatal(err)
	}
	if err := dsess.Flush(); !errors.Is(err, client.ErrNotLeader) {
		t.Fatalf("write to fenced leader: err = %v, want ErrNotLeader", err)
	}

	// Shipping continues against the frozen head: a follower drains to it.
	drain := func(fenced int, head uint64) int {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
			for i, srv := range servers {
				if i == fenced || i == leaderIdx {
					continue
				}
				if fi, err := srv.SessionRole(name); err == nil && fi.Applied >= head {
					return i
				}
			}
		}
		t.Fatalf("no follower drained to the fenced head %d", head)
		return -1
	}
	drained := drain(leaderIdx, head)

	servers[leaderIdx].Abort()
	if err := servers[drained].Promote(name); err != nil {
		t.Fatalf("promote: %v", err)
	}
	for i, srv := range servers {
		if i != drained && i != leaderIdx {
			srv.SetSessionLeader(name, addrs[drained])
		}
	}

	// The cluster client re-routes; post-fence traffic lands on the new
	// leader and the final state matches the full fault-free reference.
	post := clusterEdges(66, 2048)
	if err := cs.Send(post); err != nil {
		t.Fatal(err)
	}
	if err := cs.Flush(); err != nil {
		t.Fatal(err)
	}
	wantRes, wantDigest := clusterReference(t, name, append(append([]streamcover.Edge{}, pre...), post...))
	res, err := cs.Query()
	if err != nil {
		t.Fatal(err)
	}
	requireClusterResult(t, res, wantRes, "post-promotion query")
	digest, err := servers[drained].SessionDigest(name)
	if err != nil {
		t.Fatal(err)
	}
	if digest != wantDigest {
		t.Fatalf("promoted leader digest %s != reference %s", digest, wantDigest)
	}

	// Second round, B→C: fence the promoted leader but keep it running, so
	// the client meets its not-leader redirect; the last node drains to
	// the new frozen head and is promoted.
	if err := servers[drained].Fence(name); err != nil {
		t.Fatalf("second fence: %v", err)
	}
	ri, err = servers[drained].SessionRole(name)
	if err != nil {
		t.Fatal(err)
	}
	if ri.Applied <= head {
		t.Fatalf("second fenced head %d, want past the first %d", ri.Applied, head)
	}
	last := drain(drained, ri.Applied)
	if err := servers[last].Promote(name); err != nil {
		t.Fatalf("second promote: %v", err)
	}
	post2 := clusterEdges(88, 2048)
	if err := cs.Send(post2); err != nil {
		t.Fatal(err)
	}
	if err := cs.Flush(); err != nil {
		t.Fatal(err)
	}
	all := append(append(append([]streamcover.Edge{}, pre...), post...), post2...)
	wantRes, wantDigest = clusterReference(t, name, all)
	if res, err = cs.Query(); err != nil {
		t.Fatal(err)
	}
	requireClusterResult(t, res, wantRes, "post-second-promotion query")
	if res.Edges != len(all) {
		t.Fatalf("applied %d edges, sent %d", res.Edges, len(all))
	}
	if digest, err = servers[last].SessionDigest(name); err != nil {
		t.Fatal(err)
	}
	if digest != wantDigest {
		t.Fatalf("second promoted leader digest %s != reference %s", digest, wantDigest)
	}
	if got := cs.Leader(); got != addrs[last] {
		t.Fatalf("client routes to %q after the second promotion, want %q", got, addrs[last])
	}
}

// TestClusterPromoteInPlace: promotion is a role change on the live
// session. A follower that mirrored records past its last checkpoint is
// promoted, by several callers at once, after its leader dies. A lookup
// held across Promote is still the map's session and answers queries
// throughout, nothing is replayed, one promotion is counted, and the
// promoted leader takes writes and ends byte-equal to a fault-free
// single-node run. A follower with no replication stream attached, as a
// create leaves it before attaching one, is refused with the transient
// retry (503 over HTTP) and stays a follower.
func TestClusterPromoteInPlace(t *testing.T) {
	addrs := reserveAddrs(t, 2)
	servers := make([]*Server, 2)
	nodes := make([]client.ClusterNode, 2)
	for i, addr := range addrs {
		servers[i] = startClusterNode(t, addr, addrs)
		nodes[i] = client.ClusterNode{ID: addr, Addr: addr}
	}
	cl, err := client.DialCluster(nodes, 2, client.WithBatchSize(256), client.WithOpTimeout(3*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const name = "inplace"
	cs, err := cl.Create(name, cluM, cluN, cluK, cluAlpha, cluSeed)
	if err != nil {
		t.Fatal(err)
	}
	pre, post := clusterEdges(41, 2048), clusterEdges(42, 1024)
	if err := cs.Send(pre); err != nil {
		t.Fatal(err)
	}
	if err := cs.Flush(); err != nil {
		t.Fatal(err)
	}
	leaderIdx, head := waitClusterConverged(t, servers, name, 15*time.Second)
	followerIdx := 1 - leaderIdx
	srv := servers[followerIdx]
	held, err := srv.session(name)
	if err != nil {
		t.Fatal(err)
	}
	// A follower whose stream opened with a snapshot bootstrap holds a
	// checkpoint at the position it joined, which can be the head. It
	// mirrors every record the leader logs after that, so a further batch
	// moves the head past its checkpoint.
	for seed := uint64(43); held.dur.ckptPos.Load() >= head && seed < 46; seed++ {
		more := clusterEdges(seed, 256)
		if err := cs.Send(more); err != nil {
			t.Fatal(err)
		}
		if err := cs.Flush(); err != nil {
			t.Fatal(err)
		}
		pre = append(pre, more...)
		_, head = waitClusterConverged(t, servers, name, 15*time.Second)
	}
	if ckpt := held.dur.ckptPos.Load(); ckpt >= head {
		t.Fatalf("follower checkpoint at %d covers the head %d; the test needs records mirrored past it", ckpt, head)
	}

	// Several callers promote at once while the held lookup keeps
	// querying. Exactly one stops the applier and flips the role; the
	// others find a leader (nil) or the transient retry.
	servers[leaderIdx].Abort()
	replayed := srv.Metrics().ReplayBatches.Load()
	stopQueries, queryErr := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			select {
			case <-stopQueries:
				queryErr <- nil
				return
			default:
			}
			if _, err := held.query(nil); err != nil {
				queryErr <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = srv.Promote(name)
		}(i)
	}
	wg.Wait()
	close(stopQueries)
	if err := <-queryErr; err != nil {
		t.Errorf("query on the session looked up before Promote, during it: %v", err)
	}
	promoted := 0
	for _, err := range errs {
		if err == nil {
			promoted++
		} else if typ, _ := ackFrame(err); typ != wire.TErrRetry {
			t.Errorf("concurrent Promote: %v, want success or the transient retry", err)
		}
	}
	if promoted == 0 {
		t.Fatal("no Promote succeeded")
	}
	if got := srv.Metrics().RepPromotions.Load(); got != 1 {
		t.Errorf("%d promotions counted, want 1", got)
	}
	if now, err := srv.session(name); err != nil || now != held {
		t.Errorf("after Promote the session map holds %p (err %v), want the session looked up before it, %p", now, err, held)
	}
	if _, err := held.query(nil); err != nil {
		t.Errorf("query on the session looked up before Promote: %v", err)
	}
	if got := srv.Metrics().ReplayBatches.Load() - replayed; got != 0 {
		t.Errorf("Promote replayed %d WAL batches, want none", got)
	}
	if ri, err := srv.SessionRole(name); err != nil || ri.Role != wire.RoleLeader || ri.Applied != head {
		t.Errorf("promoted session's role %+v (err %v), want leader at head %d", ri, err, head)
	}

	// The promoted leader takes writes, and its state is the reference's.
	pc, err := client.Dial(addrs[followerIdx], client.WithBatchSize(256))
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	ps, err := pc.Create(name, cluM, cluN, cluK, cluAlpha, cluSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Send(post); err != nil {
		t.Fatal(err)
	}
	if err := ps.Flush(); err != nil {
		t.Fatalf("ingest into the promoted leader: %v", err)
	}
	_, wantDigest := clusterReference(t, name, append(append([]streamcover.Edge{}, pre...), post...))
	if digest, err := srv.SessionDigest(name); err != nil || digest != wantDigest {
		t.Errorf("promoted leader digest %s (err %v) != reference %s", digest, err, wantDigest)
	}

	// A follower with no applier attached is refused, and stays a follower.
	bareSrv := New(Config{DataDir: t.TempDir(), WALNoSync: true, CheckpointEvery: -1})
	t.Cleanup(bareSrv.Abort)
	if err := bareSrv.createSession(wire.Create{Name: "bare", M: cluM, N: cluN, K: cluK, Alpha: cluAlpha, Seed: cluSeed}); err != nil {
		t.Fatal(err)
	}
	bare, err := bareSrv.session("bare")
	if err != nil {
		t.Fatal(err)
	}
	bare.role.Store(roleFollower)
	err = bareSrv.Promote("bare")
	if typ, _ := ackFrame(err); typ != wire.TErrRetry {
		t.Errorf("Promote of a follower with no applier: err %v acks 0x%02x, want TErrRetry", err, typ)
	}
	rec := httptest.NewRecorder()
	bareSrv.httpHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/promote?session=bare", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("POST /promote on a follower with no applier: %d, want 503", rec.Code)
	}
	if bare.role.Load() != roleFollower {
		t.Error("a refused Promote flipped the session's role")
	}
	if now, err := bareSrv.session("bare"); err != nil || now != bare {
		t.Errorf("a refused Promote replaced the session: %p (err %v), want %p", now, err, bare)
	}
}

// TestClusterFollowerBootstrapsFromSnapshot drives the path of a follower
// that falls behind the leader's WAL truncation. The follower stops; the
// leader ingests past it and checkpoints, which truncates the records the
// follower still needs. Restarted on its own data dir, the follower must
// bootstrap from a leader snapshot, keep mirroring the records that
// follow it (its log re-based at the snapshot's position), and end
// byte-equal to the leader and to a fault-free single-node run.
func TestClusterFollowerBootstrapsFromSnapshot(t *testing.T) {
	addrs := reserveAddrs(t, 2)
	cfgs := make([]Config, 2)
	servers := make([]*Server, 2)
	for i, addr := range addrs {
		cfgs[i] = clusterNodeConfig(addr, addrs, t.TempDir())
		cfgs[i].WALSegmentBytes = 4096 // ~2 batches per segment, so a checkpoint truncates
		servers[i] = startClusterServer(t, cfgs[i])
	}
	nodes := make([]client.ClusterNode, 2)
	for i, addr := range addrs {
		nodes[i] = client.ClusterNode{ID: addr, Addr: addr}
	}
	cl, err := client.DialCluster(nodes, 2, client.WithBatchSize(256), client.WithOpTimeout(3*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const name = "boot"
	cs, err := cl.Create(name, cluM, cluN, cluK, cluAlpha, cluSeed)
	if err != nil {
		t.Fatal(err)
	}
	pre, post, tail := clusterEdges(21, 2048), clusterEdges(22, 4096), clusterEdges(23, 1024)
	if err := cs.Send(pre); err != nil {
		t.Fatal(err)
	}
	if err := cs.Flush(); err != nil {
		t.Fatal(err)
	}
	leaderIdx, behind := waitClusterConverged(t, servers, name, 15*time.Second)
	followerIdx := 1 - leaderIdx
	servers[followerIdx].Abort()

	if err := cs.Send(post); err != nil {
		t.Fatal(err)
	}
	if err := cs.Flush(); err != nil {
		t.Fatal(err)
	}
	leader := servers[leaderIdx]
	if err := leader.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	sess, err := leader.session(name)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := sess.dur.wal.OpenReader(behind + 1); !errors.Is(err, wal.ErrTruncated) {
		if err == nil {
			r.Close()
		}
		t.Fatalf("leader log still serves the follower's next record %d (err %v); the test needs it truncated", behind+1, err)
	}

	servers[followerIdx] = startClusterServer(t, cfgs[followerIdx])
	waitClusterConverged(t, servers, name, 15*time.Second)
	if got := servers[followerIdx].Metrics().RepBootstraps.Load(); got < 1 {
		t.Fatalf("follower caught up without a snapshot bootstrap (rep_bootstraps = %d)", got)
	}
	if err := cs.Send(tail); err != nil {
		t.Fatal(err)
	}
	if err := cs.Flush(); err != nil {
		t.Fatal(err)
	}
	waitClusterConverged(t, servers, name, 15*time.Second)
	if got := servers[followerIdx].Metrics().DurabilityRecoveries.Load(); got != 0 {
		t.Fatalf("follower degraded and recovered %d times mirroring past the snapshot", got)
	}
	all := append(append(append([]streamcover.Edge{}, pre...), post...), tail...)
	_, wantDigest := clusterReference(t, name, all)
	for i, srv := range servers {
		digest, err := srv.SessionDigest(name)
		if err != nil {
			t.Fatalf("node %d digest: %v", i, err)
		}
		if digest != wantDigest {
			t.Fatalf("node %d digest %s != reference %s", i, digest, wantDigest)
		}
	}
}

// TestClusterPromoteAfterBootstrapKeepsWALBase: a follower bootstrapped
// from a leader checkpoint re-bases its mirror log past the checkpoint's
// position and holds no record until the next one ships. Restarted in
// that state, recovery reopens an empty log. Left at position 1, below
// the checkpoint at 10, the follower promoted would report head 1, so its
// own followers would never converge, and a batch it acked would be
// logged where the next crash recovery skips it. Recovery must re-base
// the log at the checkpoint's position, and a promotion must keep it
// there.
func TestClusterPromoteAfterBootstrapKeepsWALBase(t *testing.T) {
	const name, batches, perBatch, source = "rebase", 10, 16, 7
	c := wire.Create{Name: name, M: cluM, N: cluN, K: cluK, Alpha: cluAlpha, Seed: cluSeed}
	edges := clusterEdges(31, (batches+1)*perBatch)
	ingest := func(sess *session, seq int) {
		t.Helper()
		part := edges[(seq-1)*perBatch : seq*perBatch]
		sets, elems := make([]uint32, len(part)), make([]uint32, len(part))
		for i, e := range part {
			sets[i], elems[i] = e.Set, e.Elem
		}
		payload := wire.EncodeIngestSeqColumns(nil, name, source, uint64(seq), sets, elems, cluM, cluN)
		if _, err := sess.ingestSeq(source, uint64(seq), walRecord(sess, payload), sets, elems); err != nil {
			t.Fatal(err)
		}
	}
	node := func() (*Server, *session) {
		srv := New(Config{DataDir: t.TempDir(), WALNoSync: true, CheckpointEvery: -1})
		t.Cleanup(srv.Abort)
		if err := srv.createSession(c); err != nil {
			t.Fatal(err)
		}
		sess, err := srv.session(name)
		if err != nil {
			t.Fatal(err)
		}
		return srv, sess
	}

	// The leader logs ten batches and checkpoints at position 10.
	_, lead := node()
	for seq := 1; seq <= batches; seq++ {
		ingest(lead, seq)
	}
	if err := lead.checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	payload, err := snapshot.ReadFileFS(fault.OS(), filepath.Join(lead.dur.dir, checkpointFile))
	if err != nil {
		t.Fatal(err)
	}

	// A follower bootstraps from that checkpoint and, before anything
	// ships after it, restarts through crash recovery.
	srv, follower := node()
	follower.role.Store(roleFollower)
	if err := follower.rebootstrap(batches, payload, nil); err != nil {
		t.Fatal(err)
	}
	follower.close()
	follower.dur.close()
	restarted, err := recoverSession(follower.dur.dir, srv.cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := restarted.dur.wal.LastPos(); got != batches {
		t.Fatalf("restarted follower's WAL head is %d, want the checkpoint's position %d", got, batches)
	}

	// It resumes as a follower, with a replication stream whose leader is
	// gone, and is promoted.
	srv.mu.Lock()
	srv.sessions[name] = restarted
	srv.mu.Unlock()
	srv.attachFollower(restarted, reserveAddrs(t, 1)[0])
	if err := srv.Promote(name); err != nil {
		t.Fatal(err)
	}
	promoted, err := srv.session(name)
	if err != nil {
		t.Fatal(err)
	}
	if got := promoted.dur.wal.LastPos(); got != batches {
		t.Fatalf("promoted leader's WAL head is %d, want the checkpoint's position %d", got, batches)
	}

	// A batch the new leader acks survives a crash.
	ingest(promoted, batches+1)
	srv.Abort()
	recovered, err := recoverSession(promoted.dur.dir, srv.cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		recovered.close()
		recovered.dur.close()
	})
	if got, want := recovered.edges.Load(), int64(len(edges)); got != want {
		t.Fatalf("crash recovery holds %d edges, want %d: the acked batch was lost", got, want)
	}
}
