// Command kcoverd runs the network ingest daemon for the streaming Max
// k-Cover estimator. It accepts framed edge batches on the ingest port
// (the protocol in internal/wire), applies them in arrival order to one
// estimator per session — whose batch engine fans each batch across the
// machine's cores — and serves live queries plus metrics over HTTP.
//
// Usage:
//
//	kcoverd -listen :7600 -http :7601
//	kcovergen -family planted -server localhost:7600 -session crawl
//	curl 'localhost:7601/query?session=crawl'
//	kcover -server localhost:7600 -session crawl
//
// With -data DIR the daemon is durable: sequenced ingest batches are
// written to a per-session WAL before they are acknowledged, estimator
// state is checkpointed on a cadence (and on shutdown), and a restart
// recovers every session — snapshot restore plus WAL tail replay — before
// accepting connections. A SIGKILL therefore loses nothing that was
// acknowledged.
//
// Failure handling: connections carry read/write deadlines (-read-timeout,
// -write-timeout) so a hung peer cannot park a handler forever. When a
// session's durability path breaks — an fsync error, a torn write, a full
// disk — the session degrades instead of dying: it rejects ingest with a
// retryable error (clients park and replay the batches), keeps serving
// queries, and a background loop (-retry-min/-retry-max backoff) repairs
// the WAL and re-checkpoints in place. A full disk puts the whole daemon
// in read-only mode until space frees. /healthz reports ok, degraded or
// read-only (HTTP 503 for the latter two).
//
// Multi-tenancy: with -mem-budget BYTES (requires -data) the daemon
// oversubscribes sessions against a fixed memory budget — cold sessions
// are LRU-evicted down to their checkpoints (estimator freed, WAL parked) and transparently rehydrated on their next ingest or
// query, bit-identical to never having been evicted. -session-quota caps
// one session's serialized size; -rehydrate-concurrency bounds
// simultaneous rehydrations (excess wakers get a retryable busy answer).
// /sessions and /metrics report per-session residency and the
// eviction/rehydration counters.
//
// Cluster mode: with -peers (and -node-id naming this node's entry in
// that list) the daemon joins an N-node replication fleet. Sessions place
// onto -replicas nodes by consistent hash; the placement's first node
// leads, the rest follow, mirroring the leader's WAL byte for byte over
// the ingest port (bootstrap rides a checkpoint snapshot) and replaying
// it in log order — so replica estimator state is byte-identical and
// /digest can prove it. Followers reject client
// writes with a leader redirect but serve staleness-bounded reads.
// Cluster mode requires -data (replication ships the WAL). The control
// endpoints /cluster, /digest, /fence, /promote and /leader drive
// inspection and orderly failover: fence the leader, wait for a follower
// to drain the frozen head, then promote that follower.
//
//	kcoverd -listen :7600 -http :7601 -data /var/lib/kcoverd \
//	  -node-id host1:7600 -peers host1:7600,host2:7600,host3:7600
//
// SIGINT/SIGTERM shut down gracefully: listeners close, apply queues
// drain, a final checkpoint is written, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"streamcover/internal/server"
)

func main() {
	var (
		listen = flag.String("listen", ":7600", "TCP ingest listen address")
		httpA  = flag.String("http", ":7601", "HTTP query/metrics listen address (empty disables)")
		queue  = flag.Int("queue", 64, "per-session apply queue depth in batches (backpressure bound)")
		drain  = flag.Duration("drain", 60*time.Second, "graceful shutdown budget (with -data this includes a final checkpoint, which scales with estimator size)")

		dataDir    = flag.String("data", "", "durability directory: checkpoints + WAL per session (empty = in-memory only)")
		checkpoint = flag.Duration("checkpoint", 30*time.Second, "checkpoint cadence (<=0 disables the timer; /checkpoint still works)")
		walSegment = flag.Int64("wal-segment", 0, "WAL segment size in bytes (0 = default)")
		walNoSync  = flag.Bool("wal-nosync", false, "skip fsync on WAL appends (fast, loses acked batches on power loss)")

		memBudget    = flag.Int64("mem-budget", 0, "session memory budget in bytes: LRU-evict cold sessions to their checkpoints past this (0 disables; requires -data)")
		sessionQuota = flag.Int64("session-quota", 0, "per-session serialized-size cap in bytes; ingest over quota is rejected (0 = no cap)")
		rehydrateC   = flag.Int("rehydrate-concurrency", 2, "simultaneous session rehydrations; excess wakers get a retryable busy rejection")

		readTimeout  = flag.Duration("read-timeout", 5*time.Minute, "per-frame read deadline; idle or hung peers are reaped after this (<=0 disables)")
		writeTimeout = flag.Duration("write-timeout", time.Minute, "per-response write deadline (<=0 disables)")
		retryMin     = flag.Duration("retry-min", 50*time.Millisecond, "minimum backoff of a degraded session's durability-recovery loop")
		retryMax     = flag.Duration("retry-max", 5*time.Second, "maximum backoff of a degraded session's durability-recovery loop")

		nodeID         = flag.String("node-id", "", "this node's identity in -peers (its peer-facing ingest address); required with -peers")
		peers          = flag.String("peers", "", "comma-separated ingest addresses of every cluster node (including this one); enables cluster mode, requires -data")
		replicas       = flag.Int("replicas", 0, "session placement width: leader + followers (0 = min(3, nodes))")
		repHeartbeat   = flag.Duration("rep-heartbeat", 250*time.Millisecond, "leader WAL shipper heartbeat while followers are caught up (bounds follower staleness resolution)")
		repReadTimeout = flag.Duration("rep-read-timeout", 2*time.Second, "follower-side bound on the gap between leader frames before the applier redials")
	)
	flag.Parse()

	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	if len(peerList) > 0 && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "kcoverd: cluster mode (-peers) requires -data (replication ships the WAL)")
		os.Exit(2)
	}
	if *memBudget > 0 && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "kcoverd: -mem-budget requires -data (eviction parks sessions at their checkpoints)")
		os.Exit(2)
	}

	if *readTimeout <= 0 {
		*readTimeout = -1 // Config treats 0 as "use default": make <=0 mean off
	}
	if *writeTimeout <= 0 {
		*writeTimeout = -1
	}

	if *checkpoint <= 0 {
		*checkpoint = -1 // Config treats 0 as "use default": make <=0 mean off
	}
	srv := server.New(server.Config{
		QueueDepth:           *queue,
		DataDir:              *dataDir,
		CheckpointEvery:      *checkpoint,
		WALSegmentBytes:      *walSegment,
		WALNoSync:            *walNoSync,
		ReadTimeout:          *readTimeout,
		WriteTimeout:         *writeTimeout,
		RetryMin:             *retryMin,
		RetryMax:             *retryMax,
		MemBudget:            *memBudget,
		SessionQuota:         *sessionQuota,
		RehydrateConcurrency: *rehydrateC,
		NodeID:               *nodeID,
		Peers:                peerList,
		Replicas:             *replicas,
		RepHeartbeat:         *repHeartbeat,
		RepReadTimeout:       *repReadTimeout,
	})
	if err := srv.Start(*listen, *httpA); err != nil {
		fmt.Fprintln(os.Stderr, "kcoverd:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "kcoverd: ingest on %s", srv.TCPAddr())
	if a := srv.HTTPAddr(); a != nil {
		fmt.Fprintf(os.Stderr, ", http on %s", a)
	}
	fmt.Fprintln(os.Stderr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()

	fmt.Fprintln(os.Stderr, "kcoverd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "kcoverd: shutdown:", err)
		os.Exit(1)
	}
}
