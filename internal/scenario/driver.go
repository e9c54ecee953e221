package scenario

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	streamcover "streamcover"
	"streamcover/internal/client"
	"streamcover/internal/phist"
	"streamcover/internal/workload"
)

// phaseAccum accumulates the client-observed view of one phase: every
// acked batch's edge count and first-write-to-ack latency land in the
// accumulator of whichever phase is current when the ack arrives.
type phaseAccum struct {
	hist    phist.Hist
	edges   atomic.Int64
	batches atomic.Int64
	seconds float64
}

// ingestSession is the slice of the client surface the drivers use — a
// single-node Session, or a ClusterSession that re-routes around leader
// changes. Both flavors keep the exactly-once resend guarantees.
type ingestSession interface {
	Send(edges []streamcover.Edge) error
	Flush() error
	Query() (client.Result, error)
}

// fleet drives the generated stream into the daemon over Connections
// parallel client connections, each with its own pacer (the phase's
// target rate split evenly) and its own round-robin slice of the stream.
// In cluster mode every connection is its own cluster-aware client (own
// source identity, own failover state) routed at the session leader.
//
// Accounting is client-side on purpose: server /metrics counters reset
// across a kill/restart, but the ack observer sees every successfully
// acknowledged batch regardless of how many reconnects and replays it
// took — so per-phase throughput and latency survive daemon lifecycles.
type fleet struct {
	spec     FleetSpec
	clients  []*client.Client
	clusters []*client.Cluster
	sess     [][]ingestSession        // [connection][tenant] session handles
	csess    []*client.ClusterSession // parallel to sess in cluster mode
	streams  [][]streamcover.Edge
	pacers   []*workload.Pacer
	pickers  []*workload.TenantPicker // per-connection tenant routing
	sent     []int64                  // edges handed to Send, per connection (owner-written)

	phaseIdx atomic.Int64
	phases   []*phaseAccum

	stop chan struct{}
	wg   sync.WaitGroup
	errs chan error
}

// newFleet dials the fleet and creates (or attaches to) the sessions. The
// first connection creates; the rest attach by issuing the same Create,
// which the server treats as idempotent for identical dimensions. nodes
// is nil for a single daemon; non-nil switches to cluster routing. With
// tenants > 1 every connection carries one handle per tenant session
// (sessionName) on the same wire, and a per-connection seeded picker
// routes each chunk — the whole tenant fan-out stays a pure function of
// the spec's seed.
func newFleet(spec *Spec, addr string, nodes []client.ClusterNode, edges []streamcover.Edge, m, n, k int) (*fleet, error) {
	conns := spec.Fleet.Connections
	f := &fleet{
		spec:    spec.Fleet,
		streams: make([][]streamcover.Edge, conns),
		pacers:  make([]*workload.Pacer, conns),
		pickers: make([]*workload.TenantPicker, conns),
		sent:    make([]int64, conns),
		phases:  make([]*phaseAccum, len(spec.Phases)),
		stop:    make(chan struct{}),
		errs:    make(chan error, conns),
	}
	for i := range f.phases {
		f.phases[i] = &phaseAccum{}
	}
	obs := func(edges int, d time.Duration) {
		acc := f.phases[f.phaseIdx.Load()]
		acc.hist.Observe(d.Nanoseconds())
		acc.edges.Add(int64(edges))
		acc.batches.Add(1)
	}
	// Round-robin edge partition: connection i gets edges i, i+conns, …
	// Together the slices are exactly the generated multiset, and the
	// bit-identity invariant makes the server's answer independent of the
	// partition, so the reference estimator can replay per-connection.
	for i := range f.streams {
		f.streams[i] = make([]streamcover.Edge, 0, len(edges)/conns+1)
	}
	for i, e := range edges {
		c := i % conns
		f.streams[c] = append(f.streams[c], e)
	}
	dialOpts := []client.Option{
		client.WithBatchSize(spec.Fleet.BatchEdges),
		client.WithMaxPending(spec.Fleet.MaxPending),
		client.WithBackoff(20*time.Millisecond, 500*time.Millisecond),
		client.WithDialTimeout(2 * time.Second),
		client.WithOpTimeout(5 * time.Second),
		// Paced phases trickle batches below the pipeline window;
		// without a flush cadence they would sit in the write buffer
		// and neither arrive nor ack until the next blast.
		client.WithFlushInterval(2 * time.Millisecond),
		client.WithAckObserver(obs),
	}
	// Pacers start at phase 0's rate: the drivers begin sending as soon as
	// start returns, before the run loop's first setPhase.
	rate0 := spec.Phases[0].Rate / float64(conns)
	for i := 0; i < conns; i++ {
		f.pacers[i] = workload.NewPacer(rate0)
		f.pickers[i] = workload.NewTenantPicker(spec.Fleet.Tenants, spec.Fleet.Skew, spec.Seed+int64(i))
		if nodes != nil {
			// A finite reconnect budget is load-bearing here: exhausting
			// it against a dead leader is what surfaces the failoverable
			// error that makes the ClusterSession re-resolve placement.
			// A failover clears the exhausted budget when it retargets
			// the session's client, so the budget bounds one outage's
			// patience, not the run's.
			cl, err := client.DialCluster(nodes, spec.Cluster.Replicas,
				append(dialOpts, client.WithReconnect(8))...)
			if err != nil {
				f.closeAll()
				return nil, fmt.Errorf("fleet cluster dial %d: %w", i, err)
			}
			cl.FailoverWait = 30 * time.Second
			f.clusters = append(f.clusters, cl)
			cs, err := cl.Create(spec.Name, m, n, k, spec.Workload.Alpha, spec.Seed)
			if err != nil {
				f.closeAll()
				return nil, fmt.Errorf("fleet cluster create %d: %w", i, err)
			}
			f.sess = append(f.sess, []ingestSession{cs})
			f.csess = append(f.csess, cs)
			continue
		}
		cl, err := client.Dial(addr, append(dialOpts, client.WithReconnect(100000))...)
		if err != nil {
			f.closeAll()
			return nil, fmt.Errorf("fleet dial %d: %w", i, err)
		}
		f.clients = append(f.clients, cl)
		row := make([]ingestSession, 0, spec.Fleet.Tenants)
		for t := 0; t < spec.Fleet.Tenants; t++ {
			sess, err := cl.Create(sessionName(spec, t), m, n, k, spec.Workload.Alpha, spec.Seed)
			if err != nil {
				f.closeAll()
				return nil, fmt.Errorf("fleet create %d tenant %d: %w", i, t, err)
			}
			row = append(row, sess)
		}
		f.sess = append(f.sess, row)
	}
	return f, nil
}

// sessionName is tenant t's server-side session name. A single-tenant run
// keeps the bare spec name (every pre-existing spec is unchanged); a
// fan-out suffixes the tenant index so sessions stay addressable from
// /sessions and the query endpoints.
func sessionName(spec *Spec, t int) string {
	if spec.Fleet.Tenants <= 1 {
		return spec.Name
	}
	return fmt.Sprintf("%s-t%d", spec.Name, t)
}

// start launches one driver goroutine per connection.
func (f *fleet) start() {
	for i := range f.sess {
		f.wg.Add(1)
		go func(ci int) {
			defer f.wg.Done()
			if err := f.drive(ci); err != nil {
				select {
				case f.errs <- fmt.Errorf("conn %d: %w", ci, err):
				default:
				}
			}
		}(i)
	}
}

// drive pumps this connection's stream slice in batch-size chunks,
// cycling back to the start when the slice is exhausted — a timed phase
// must never run out of load, and re-sending the same edges is safe
// because max-coverage ingest is idempotent on the multiset level (the
// reference estimator replays the identical cycled sequence). Each chunk
// goes to the tenant session the connection's seeded picker chooses, so a
// skewed fan-out leaves cold tenants idle for long stretches — exactly
// the access pattern that exercises eviction and rehydration.
func (f *fleet) drive(ci int) error {
	row := f.sess[ci]
	edges := f.streams[ci]
	if len(edges) == 0 {
		return nil
	}
	pos := 0
	for {
		select {
		case <-f.stop:
			return nil
		default:
		}
		end := pos + f.spec.BatchEdges
		if end > len(edges) {
			end = len(edges)
		}
		chunk := edges[pos:end]
		f.pacers[ci].Take(len(chunk))
		// Re-check after a potentially long pace wait so a phase change
		// to stop doesn't strand us in one more blocking Send.
		select {
		case <-f.stop:
			return nil
		default:
		}
		if err := row[f.pickers[ci].Pick()].Send(chunk); err != nil {
			return err
		}
		f.sent[ci] += int64(len(chunk))
		pos = end
		if pos >= len(edges) {
			pos = 0
		}
	}
}

// setPhase switches ack accounting to phase pi and retargets every pacer
// to its per-connection share of the phase's total rate (newFleet already
// set phase 0's).
func (f *fleet) setPhase(pi int, totalRate float64) {
	f.phaseIdx.Store(int64(pi))
	per := totalRate / float64(len(f.pacers))
	for _, p := range f.pacers {
		p.SetRate(per)
	}
}

// halt stops the drivers and waits for them; pacers are opened up first
// so nobody is stuck in a token wait.
func (f *fleet) halt() error {
	close(f.stop)
	for _, p := range f.pacers {
		p.SetRate(0)
	}
	f.wg.Wait()
	select {
	case err := <-f.errs:
		return err
	default:
		return nil
	}
}

// flushAll barriers every connection: all buffered and in-flight batches
// acknowledged (replaying through restarts and busy windows as needed).
func (f *fleet) flushAll() error {
	for i, row := range f.sess {
		for t, s := range row {
			if err := s.Flush(); err != nil {
				return fmt.Errorf("conn %d tenant %d flush: %w", i, t, err)
			}
		}
	}
	return nil
}

// queryApplied reads the server-side truth after the final flush: the
// summed applied edge count across every tenant session (through conn 0's
// handles — all connections address the same server sessions) and tenant
// 0's full result for the report's coverage row. With one tenant this is
// exactly the old single-session query, so the exactly-once gate keeps
// its meaning: sum(per-tenant applied) == edges handed to Send.
func (f *fleet) queryApplied() (first client.Result, applied int64, err error) {
	for t, s := range f.sess[0] {
		r, qerr := s.Query()
		if qerr != nil {
			return client.Result{}, 0, fmt.Errorf("tenant %d query: %w", t, qerr)
		}
		if t == 0 {
			first = r
		}
		applied += int64(r.Edges)
	}
	return first, applied, nil
}

func (f *fleet) totalSent() int64 {
	var t int64
	for _, n := range f.sent {
		t += n
	}
	return t
}

func (f *fleet) closeAll() {
	for _, cl := range f.clients {
		cl.Close()
	}
	for _, cl := range f.clusters {
		cl.Close()
	}
}
