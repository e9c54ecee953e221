package scenario

import (
	"context"
	"fmt"
	"sync"
	"time"

	"streamcover/internal/fault"
	"streamcover/internal/server"
)

// daemon is a managed in-process kcoverd instance: the harness owns its
// start/kill/restart lifecycle, its data directory, a fault.Injector
// wrapping every filesystem call, and (optionally) fault.Proxy layers in
// front of both the ingest TCP port and the HTTP sidecar so network
// faults apply to everything clients and the health scraper see.
//
// Running in-process rather than exec'ing cmd/kcoverd is what makes the
// declarative fault schedule possible at all — the injector and proxy are
// in-process APIs — and a kill maps to server.Abort(), which drops every
// connection and leaves the data dir exactly as a SIGKILL would.
type daemon struct {
	spec    DaemonSpec
	dataDir string // empty when not durable
	inj     *fault.Injector

	// Concrete addresses from the first start; restarts rebind them so
	// clients and proxies reconnect without re-resolution. Cluster nodes
	// have them pre-reserved instead (identities must exist before any
	// server's peer list can be built).
	tcpAddr, httpAddr string

	ingestProxy, httpProxy *fault.Proxy // nil unless spec.Proxy
	// peerProxy fronts the replication plane of a cluster node under
	// chaos: its address IS the node's cluster identity, so followers
	// fetch WAL (and bootstrap checkpoints) through it whenever this
	// node leads, and peer_partition severs replication without touching
	// the client planes above.
	peerProxy *fault.Proxy

	clu *clusterWiring // nil outside cluster mode

	mu    sync.Mutex
	srv   *server.Server
	alive bool
}

// clusterWiring is one node's slice of the fleet topology, fixed before
// any node starts: its identity, the full peer list, and the replication
// knobs shared by every node.
type clusterWiring struct {
	nodeID    string
	peers     []string
	replicas  int
	heartbeat time.Duration
}

func newDaemon(spec DaemonSpec, dataDir string) *daemon {
	d := &daemon{spec: spec}
	if spec.Durable {
		d.dataDir = dataDir
		d.inj = fault.NewInjector(nil) // nil inner = the real filesystem
	}
	return d
}

func (d *daemon) config() server.Config {
	cfg := server.Config{
		QueueDepth: d.spec.QueueDepth,
		RetryMin:   d.spec.RetryMin.Duration,
		RetryMax:   d.spec.RetryMax.Duration,
	}
	if d.spec.Durable {
		cfg.DataDir = d.dataDir
		cfg.CheckpointEvery = d.spec.CheckpointEvery.Duration
		cfg.WALNoSync = d.spec.WALNoSync
		cfg.FS = d.inj
		cfg.MemBudget = d.spec.MemBudget
	}
	if d.clu != nil {
		cfg.NodeID = d.clu.nodeID
		cfg.Peers = d.clu.peers
		cfg.Replicas = d.clu.replicas
		cfg.RepHeartbeat = d.clu.heartbeat
	}
	return cfg
}

// start boots the daemon. The first start binds ephemeral localhost ports
// and records them; every later start (a restart after kill) rebinds the
// same ports, which works because Go listeners set SO_REUSEADDR, so the
// proxies and reconnecting clients need no address updates.
func (d *daemon) start() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.alive {
		return fmt.Errorf("daemon already running")
	}
	srv := server.New(d.config())
	tcp, http := d.tcpAddr, d.httpAddr
	if tcp == "" {
		tcp, http = "127.0.0.1:0", "127.0.0.1:0"
	}
	if err := srv.Start(tcp, http); err != nil {
		return err
	}
	d.tcpAddr = srv.TCPAddr().String()
	d.httpAddr = srv.HTTPAddr().String()
	d.srv, d.alive = srv, true
	if d.spec.Proxy && d.ingestProxy == nil {
		ip, err := fault.NewProxy(d.tcpAddr)
		if err != nil {
			srv.Abort()
			return err
		}
		hp, err := fault.NewProxy(d.httpAddr)
		if err != nil {
			ip.Close()
			srv.Abort()
			return err
		}
		d.ingestProxy, d.httpProxy = ip, hp
	}
	return nil
}

// kill is the SIGKILL path: no checkpoint, no WAL flush, every connection
// dropped. Proxied client connections are severed too, so parked clients
// start their reconnect loop immediately instead of waiting out a read
// timeout against a half-open proxy pipe.
func (d *daemon) kill() {
	d.mu.Lock()
	srv, alive := d.srv, d.alive
	d.srv, d.alive = nil, false
	d.mu.Unlock()
	if !alive {
		return
	}
	srv.Abort()
	if d.ingestProxy != nil {
		d.ingestProxy.DropAll()
	}
	if d.peerProxy != nil {
		// Sever live replication streams too, so the followers' appliers
		// notice the dead leader immediately and start their redial loop.
		d.peerProxy.DropAll()
	}
}

// server returns the live server handle, if the daemon is up.
func (d *daemon) server() (*server.Server, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.srv, d.alive
}

// checkpoint forces a checkpoint of every session (the "checkpoint"
// lifecycle action).
func (d *daemon) checkpoint() error {
	d.mu.Lock()
	srv, alive := d.srv, d.alive
	d.mu.Unlock()
	if !alive {
		return fmt.Errorf("daemon not running")
	}
	return srv.CheckpointAll()
}

// shutdown drains gracefully and tears down the proxies.
func (d *daemon) shutdown(timeout time.Duration) error {
	d.mu.Lock()
	srv, alive := d.srv, d.alive
	d.srv, d.alive = nil, false
	d.mu.Unlock()
	var err error
	if alive {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		err = srv.Shutdown(ctx)
		cancel()
	}
	if d.ingestProxy != nil {
		d.ingestProxy.Close()
		d.httpProxy.Close()
	}
	if d.peerProxy != nil {
		d.peerProxy.Close()
	}
	return err
}

// applyFault turns one scheduled fault on (window start) or off (window
// end). Validation already guaranteed the needed layer exists: durable
// kinds have the injector, proxy kinds have the proxies.
func (d *daemon) applyFault(f FaultSpec, on bool) {
	switch f.Kind {
	case "disk_full":
		if on {
			d.inj.SetDiskBudget(f.Budget)
		} else {
			d.inj.SetDiskBudget(-1)
		}
	case "fail_syncs":
		d.inj.FailSyncs(windowCount(f, on), nil)
	case "fail_writes":
		d.inj.FailWrites(windowCount(f, on), nil)
	case "io_latency":
		if on {
			d.inj.SetLatency(f.Delay.Duration)
		} else {
			d.inj.SetLatency(0)
		}
	case "partition":
		// Black-hole both planes: new connections hang, and live ones are
		// dropped so clients feel the cut immediately rather than at the
		// next read timeout.
		d.ingestProxy.Partition(on)
		d.httpProxy.Partition(on)
		if on {
			d.ingestProxy.DropAll()
			d.httpProxy.DropAll()
		}
	case "net_delay":
		if on {
			d.ingestProxy.SetDelay(f.Delay.Duration)
		} else {
			d.ingestProxy.SetDelay(0)
		}
	case "peer_partition":
		// Replication plane only: followers replicating (or bootstrapping)
		// from this node lose their streams and their redials hang, while
		// client ingest and queries continue on the other proxies.
		d.peerProxy.Partition(on)
		if on {
			d.peerProxy.DropAll()
		}
	case "drop_conns":
		if on {
			d.ingestProxy.DropAll()
		}
	}
}

// windowCount maps a FaultSpec count to the injector's arming convention:
// window start arms Count failures (<=0: sticky for the whole window),
// window end always clears.
func windowCount(f FaultSpec, on bool) int {
	if !on {
		return 0
	}
	if f.Count <= 0 {
		return -1
	}
	return f.Count
}

// clearFaults force-clears every fault layer — the post-run safety net.
func (d *daemon) clearFaults() {
	if d.inj != nil {
		d.inj.Clear()
	}
	if d.ingestProxy != nil {
		d.ingestProxy.Partition(false)
		d.ingestProxy.SetDelay(0)
		d.httpProxy.Partition(false)
		d.httpProxy.SetDelay(0)
	}
	if d.peerProxy != nil {
		d.peerProxy.Partition(false)
		d.peerProxy.SetDelay(0)
	}
}

// clientAddr is where the fleet dials: the ingest proxy when chaos is
// enabled, the server itself otherwise.
func (d *daemon) clientAddr() string {
	if d.ingestProxy != nil {
		return d.ingestProxy.Addr()
	}
	return d.tcpAddr
}

// healthAddr is where the collector scrapes /healthz — proxied when chaos
// is enabled so a partition reads as "down", which is what recovery-time
// measurement needs.
func (d *daemon) healthAddr() string {
	if d.httpProxy != nil {
		return d.httpProxy.Addr()
	}
	return d.httpAddr
}
