package scenario

import (
	"fmt"
	"net"
	"path/filepath"
	"time"

	"streamcover/internal/client"
	"streamcover/internal/fault"
	"streamcover/internal/server"
	"streamcover/internal/wire"
)

// nodeSet is the managed daemon fleet behind one run: a single daemon in
// the classic mode, N cluster nodes otherwise. In cluster mode every
// node's identity (the address its peers dial) is fixed before any server
// starts — identities form each server's peer list and the placement
// ring, so they cannot depend on start order — by reserving concrete
// loopback ports up front and rebinding them on every (re)start.
type nodeSet struct {
	spec  *Spec
	nodes []*daemon
}

func newNodeSet(spec *Spec, dataDir string) (*nodeSet, error) {
	if !spec.clustered() {
		return &nodeSet{spec: spec, nodes: []*daemon{newDaemon(spec.Daemon, dataDir)}}, nil
	}
	n := spec.Cluster.Nodes
	ns := &nodeSet{spec: spec, nodes: make([]*daemon, n)}
	tcps, err := reservePorts(n)
	if err != nil {
		return nil, err
	}
	https, err := reservePorts(n)
	if err != nil {
		return nil, err
	}
	closeAll := func() {
		for _, d := range ns.nodes {
			if d == nil {
				continue
			}
			for _, p := range []*fault.Proxy{d.ingestProxy, d.httpProxy, d.peerProxy} {
				if p != nil {
					p.Close()
				}
			}
		}
	}
	for i := range ns.nodes {
		d := newDaemon(spec.Daemon, filepath.Join(dataDir, fmt.Sprintf("node-%d", i)))
		d.tcpAddr, d.httpAddr = tcps[i], https[i]
		ns.nodes[i] = d
		if !spec.Daemon.Proxy {
			continue
		}
		// Three independent proxy planes per node: client ingest, HTTP
		// (health/metrics as an external prober sees them), and the peer
		// plane the other nodes replicate through.
		if d.ingestProxy, err = fault.NewProxy(d.tcpAddr); err == nil {
			if d.httpProxy, err = fault.NewProxy(d.httpAddr); err == nil {
				d.peerProxy, err = fault.NewProxy(d.tcpAddr)
			}
		}
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("node %d proxies: %w", i, err)
		}
	}
	ids := make([]string, n)
	for i, d := range ns.nodes {
		ids[i] = d.tcpAddr
		if d.peerProxy != nil {
			ids[i] = d.peerProxy.Addr()
		}
	}
	for i, d := range ns.nodes {
		d.clu = &clusterWiring{
			nodeID:    ids[i],
			peers:     ids,
			replicas:  spec.Cluster.Replicas,
			heartbeat: spec.Cluster.Heartbeat.Duration,
		}
	}
	return ns, nil
}

// reservePorts binds n ephemeral loopback listeners, records their
// addresses and closes them; SO_REUSEADDR makes the later rebind safe.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}

func (ns *nodeSet) startAll() error {
	for i, d := range ns.nodes {
		if err := d.start(); err != nil {
			for j := 0; j < i; j++ {
				ns.nodes[j].shutdown(5 * time.Second)
			}
			return fmt.Errorf("node %d: %w", i, err)
		}
	}
	return nil
}

func (ns *nodeSet) shutdownAll(timeout time.Duration) error {
	var first error
	for _, d := range ns.nodes {
		if err := d.shutdown(timeout); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (ns *nodeSet) clearAllFaults() {
	for _, d := range ns.nodes {
		d.clearFaults()
	}
}

// clientNodes is the fleet as the cluster-aware client should see it:
// each node's ring identity plus the address client traffic dials (the
// ingest proxy under chaos — so replication and client partitions stay
// independent).
func (ns *nodeSet) clientNodes() []client.ClusterNode {
	out := make([]client.ClusterNode, len(ns.nodes))
	for i, d := range ns.nodes {
		out[i] = client.ClusterNode{ID: d.clu.nodeID, Addr: d.clientAddr()}
	}
	return out
}

// liveHTTPAddrs are the direct (unproxied) HTTP addresses of the live
// nodes — metrics scrapes must see through partitions, not be shaped by
// them.
func (ns *nodeSet) liveHTTPAddrs() []string {
	var out []string
	for _, d := range ns.nodes {
		if _, ok := d.server(); ok {
			out = append(out, d.httpAddr)
		}
	}
	return out
}

// failover is the control-plane action behind the "failover" lifecycle
// event, run as an orderly fence-drain-promote: find the session's live
// leader, fence it (new ingest rejected with the not-leader redirect;
// shipping keeps running against a frozen head), wait for a live replica
// to drain the remaining tail, kill the old leader (SIGKILL semantics, no
// checkpoint), promote that replica in place (its replication stream
// stops and its role flips; its state already is the leader's), and
// point the other survivors' appliers at it. The fence is what makes the
// promotion lossless: acks outrun the asynchronous shipping, so killing
// an unfenced leader could strand the last acked batches on its dead
// disk. Returns the promoted node's identity.
func (ns *nodeSet) failover(session string) (string, error) {
	leaderIdx := -1
	var leaderSrv *server.Server
	for i, d := range ns.nodes {
		srv, ok := d.server()
		if !ok {
			continue
		}
		ri, err := srv.SessionRole(session)
		if err == nil && ri.Role == wire.RoleLeader {
			leaderIdx, leaderSrv = i, srv
			break
		}
	}
	if leaderIdx < 0 {
		return "", fmt.Errorf("failover: no live leader for session %q", session)
	}
	if err := leaderSrv.Fence(session); err != nil {
		return "", fmt.Errorf("failover: fence: %w", err)
	}
	best, err := ns.awaitDrain(session, leaderIdx, leaderSrv, 10*time.Second)
	if err != nil {
		return "", err
	}
	ns.nodes[leaderIdx].kill()
	bsrv, ok := ns.nodes[best].server()
	if !ok {
		return "", fmt.Errorf("failover: drained node %d died before promotion", best)
	}
	if err := bsrv.Promote(session); err != nil {
		return "", fmt.Errorf("failover: promote node %d: %w", best, err)
	}
	promoted := ns.nodes[best].clu.nodeID
	for i, d := range ns.nodes {
		if i == best || i == leaderIdx {
			continue
		}
		if srv, ok := d.server(); ok {
			srv.SetSessionLeader(session, promoted)
		}
	}
	return promoted, nil
}

// awaitDrain waits until some live replica's applied watermark reaches
// the fenced leader's durable head and returns that node's index. The
// head is re-read after the candidate qualifies: a batch that passed the
// fence check just before the flag flipped may still append, so the drain
// is only proven against a head observed unchanged around the comparison.
func (ns *nodeSet) awaitDrain(session string, leaderIdx int, leaderSrv *server.Server, timeout time.Duration) (int, error) {
	deadline := time.Now().Add(timeout)
	for {
		ri, err := leaderSrv.SessionRole(session)
		if err != nil {
			return -1, fmt.Errorf("failover: fenced leader role: %w", err)
		}
		head := ri.Applied
		best, bestApplied := -1, uint64(0)
		for i, d := range ns.nodes {
			if i == leaderIdx {
				continue
			}
			srv, ok := d.server()
			if !ok {
				continue
			}
			fi, err := srv.SessionRole(session)
			if err != nil {
				continue
			}
			if best < 0 || fi.Applied > bestApplied {
				best, bestApplied = i, fi.Applied
			}
		}
		if best >= 0 && bestApplied >= head {
			if ri2, err := leaderSrv.SessionRole(session); err == nil && ri2.Applied == head {
				return best, nil
			}
		}
		if time.Now().After(deadline) {
			if best < 0 {
				return -1, fmt.Errorf("failover: no live replica of session %q to promote", session)
			}
			return -1, fmt.Errorf("failover: replica %d drained to %d of the fenced head %d within %v",
				best, bestApplied, head, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// awaitConvergence polls the live replicas until exactly one leads the
// session, every follower's applied watermark has reached the leader's
// durable head, and all estimator digests are byte-equal — the
// replication subsystem's strongest invariant: deterministic WAL replay
// makes equality checkable byte for byte, not approximately. Returns the final per-node rows either way; the error
// carries what was still divergent at the deadline.
func (ns *nodeSet) awaitConvergence(session string, timeout time.Duration) ([]ReplicaReport, string, error) {
	deadline := time.Now().Add(timeout)
	var rows []ReplicaReport
	var leader string
	var lastErr error
	for {
		rows, leader, lastErr = ns.replicaRows(session)
		if lastErr == nil {
			return rows, leader, nil
		}
		if time.Now().After(deadline) {
			return rows, leader, fmt.Errorf("replicas did not converge within %v: %w", timeout, lastErr)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// replicaRows snapshots every live node's role, watermark and digest, and
// checks the convergence predicate over the snapshot.
func (ns *nodeSet) replicaRows(session string) ([]ReplicaReport, string, error) {
	var rows []ReplicaReport
	var leader string
	var head uint64
	leaders := 0
	for _, d := range ns.nodes {
		srv, ok := d.server()
		if !ok {
			continue
		}
		// A role/digest error means the node does not host the session
		// (placement narrower than the fleet) or is shutting down; skip it
		// and let the quorum check below decide whether that's fatal.
		ri, err := srv.SessionRole(session)
		if err != nil {
			continue
		}
		digest, err := srv.SessionDigest(session)
		if err != nil {
			continue
		}
		row := ReplicaReport{Node: d.clu.nodeID, Role: "follower", Applied: ri.Applied, Digest: digest}
		if ri.Role == wire.RoleLeader {
			row.Role = "leader"
			leader = d.clu.nodeID
			head = ri.Applied
			leaders++
		} else {
			row.StalenessSeconds = time.Duration(ri.StalenessNanos).Seconds()
		}
		rows = append(rows, row)
	}
	if leaders != 1 {
		return rows, leader, fmt.Errorf("%d live leaders", leaders)
	}
	if len(rows) < 2 {
		return rows, leader, fmt.Errorf("only %d replica reports the session", len(rows))
	}
	if head == 0 {
		return rows, leader, fmt.Errorf("leader has an empty log")
	}
	for _, r := range rows {
		if r.Applied != head {
			return rows, leader, fmt.Errorf("node %s applied %d, leader head %d", r.Node, r.Applied, head)
		}
		if r.Digest != rows[0].Digest {
			return rows, leader, fmt.Errorf("node %s digest %s != %s", r.Node, r.Digest, rows[0].Digest)
		}
	}
	return rows, leader, nil
}
