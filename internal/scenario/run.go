package scenario

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	streamcover "streamcover"
	"streamcover/internal/client"
	"streamcover/internal/stream"
	"streamcover/internal/workload"
)

// Options tune a Run without being part of the spec (the spec describes
// the scenario; Options describe the harness around it).
type Options struct {
	// Log receives progress lines; nil is silent.
	Log io.Writer
	// PollInterval is the /healthz scrape cadence (default 100ms). It is
	// also the resolution of every recovery-time measurement.
	PollInterval time.Duration
	// Baseline, when set, is the same scenario's report from a previous
	// run; the max_throughput_drop_pct gate compares against it.
	Baseline *ScenarioReport
	// DataDir overrides the durable daemon's data directory (default: a
	// fresh temp dir, removed afterwards).
	DataDir string
}

func (o *Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// buildWorkload derives the full edge stream from the spec's single seed:
// instance generation and arrival-order linearization share one rng, so
// the stream — and its digest — is a pure function of the spec.
func buildWorkload(spec *Spec) (edges []streamcover.Edge, digest uint64, m, n, k int, err error) {
	rng := rand.New(rand.NewSource(spec.Seed))
	w := spec.Workload
	inst, err := workload.FromFamily(w.Family, workload.FamilyParams{
		N: w.N, M: w.M, K: w.K,
		Frac: w.Frac, AvgSize: w.AvgSize, Exponent: w.Exponent, MaxSize: w.MaxSize,
		Large: w.Large, Commons: w.Commons, Privates: w.Privates,
		AvgDeg: w.AvgDeg, PerSet: w.PerSet, Rich: w.Rich,
	}, rng)
	if err != nil {
		return nil, 0, 0, 0, 0, err
	}
	var ord stream.Order
	switch w.Order {
	case "set":
		ord = stream.SetArrival
	case "shuffled":
		ord = stream.Shuffled
	case "element":
		ord = stream.ElementMajor
	case "roundrobin":
		ord = stream.RoundRobin
	}
	sl := stream.Linearize(inst.System, ord, rng)
	sedges := sl.Edges()
	edges = make([]streamcover.Edge, len(sedges))
	for i, e := range sedges {
		edges[i] = streamcover.Edge(e)
	}
	return edges, stream.Digest(sedges), len(inst.System.Sets), inst.System.N, inst.K, nil
}

// Run executes one scenario end to end and returns its report. The
// returned error is reserved for harness failures (bad spec, setup); a
// scenario that runs but fails its gates returns (report, nil) with
// report.Pass == false.
func Run(spec *Spec, opts Options) (*ScenarioReport, error) {
	if opts.PollInterval == 0 {
		opts.PollInterval = 100 * time.Millisecond
	}
	rep := &ScenarioReport{Name: spec.Name, Description: spec.Description, Seed: spec.Seed}

	edges, digest, m, n, k, err := buildWorkload(spec)
	if err != nil {
		return nil, err
	}
	rep.StreamDigest = fmt.Sprintf("%016x", digest)
	rep.EdgesGenerated = len(edges)
	if spec.Fleet.Tenants > 1 {
		rep.Tenants = spec.Fleet.Tenants
	}
	opts.logf("[%s] workload: %d edges over m=%d n=%d k=%d (digest %s)",
		spec.Name, len(edges), m, n, k, rep.StreamDigest)

	dataDir := opts.DataDir
	if spec.Daemon.Durable && dataDir == "" {
		dir, err := os.MkdirTemp("", "kcoverload-"+spec.Name+"-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		dataDir = dir
	}
	ns, err := newNodeSet(spec, dataDir)
	if err != nil {
		return nil, fmt.Errorf("node set: %w", err)
	}
	if err := ns.startAll(); err != nil {
		return nil, fmt.Errorf("daemon start: %w", err)
	}
	defer ns.shutdownAll(30 * time.Second)

	// One health collector per node, each at the proxied vantage point —
	// recovery time for a fault on node i is read from node i's timeline.
	colls := make([]*collector, len(ns.nodes))
	for i, d := range ns.nodes {
		colls[i] = newCollector(d.healthAddr(), opts.PollInterval)
	}
	haltColls := func() {
		for _, c := range colls {
			if c != nil {
				c.halt()
			}
		}
	}

	var fl *fleet
	if spec.clustered() {
		fl, err = newFleet(spec, "", ns.clientNodes(), edges, m, n, k)
	} else {
		fl, err = newFleet(spec, ns.nodes[0].clientAddr(), nil, edges, m, n, k)
	}
	if err != nil {
		haltColls()
		return nil, fmt.Errorf("fleet: %w", err)
	}
	defer fl.closeAll()

	// Server latency histograms are snapshotted at every phase boundary
	// so each phase gets its own server-side percentile diff. The first
	// snapshot lands before the fleet starts, so phase 0's diff covers
	// every batch the drivers send.
	snaps := make([]serverHists, 0, len(spec.Phases)+1)
	snaps = append(snaps, scrapeHists(ns.liveHTTPAddrs()))

	runStart := time.Now()
	sched := newScheduler(spec, ns, runStart, opts)
	sched.start()
	fl.start()

	// Drive the phases: ack accounting and pacing switch at each
	// boundary; the wall clock is authoritative for phase length.
	for pi, ph := range spec.Phases {
		if pi > 0 {
			snaps = append(snaps, scrapeHists(ns.liveHTTPAddrs()))
		}
		phStart := time.Now()
		fl.setPhase(pi, ph.Rate)
		opts.logf("[%s] phase %q: %v at %s", spec.Name, ph.Name, ph.Duration.Duration, rateStr(ph.Rate))
		time.Sleep(ph.Duration.Duration)
		fl.phases[pi].seconds = time.Since(phStart).Seconds()
	}

	driveErr := fl.halt()
	sched.wait()
	// Residual safety: no fault may outlive the run, whatever the
	// schedule did.
	ns.clearAllFaults()

	// The barrier: every sent edge acknowledged (replaying through any
	// remaining busy window), then every live daemon observed healthy —
	// which is also what closes out the recovery-time measurements.
	flushErr := fl.flushAll()
	// The last phase's server-side window closes after the flush so its
	// diff covers the batches the flush replayed.
	snaps = append(snaps, scrapeHists(ns.liveHTTPAddrs()))
	healthy := true
	for i, d := range ns.nodes {
		if _, ok := d.server(); ok && !colls[i].waitHealthy(30*time.Second) {
			healthy = false
		}
	}
	rep.ElapsedSeconds = time.Since(runStart).Seconds()

	// Per-phase accounting: the client-observed view from the ack
	// observer, and the server-side ingest percentiles from the
	// /metrics histogram diff across the phase boundary.
	for pi, ph := range spec.Phases {
		acc := fl.phases[pi]
		pr := PhaseReport{
			Name:       ph.Name,
			Seconds:    acc.seconds,
			TargetRate: ph.Rate,
			EdgesAcked: acc.edges.Load(),
			Batches:    acc.batches.Load(),
		}
		if pr.Seconds > 0 {
			pr.EdgesPerSec = float64(pr.EdgesAcked) / pr.Seconds
		}
		if acc.hist.Count() > 0 {
			pr.P50Millis = float64(acc.hist.Quantile(0.50)) / 1e6
			pr.P95Millis = float64(acc.hist.Quantile(0.95)) / 1e6
			pr.P99Millis = float64(acc.hist.Quantile(0.99)) / 1e6
			pr.MeanMillis = float64(acc.hist.Mean()) / 1e6
		}
		if sh := snaps[pi+1].diff(snaps[pi])["ingest_batch_nanos"]; len(sh) > 0 {
			pr.ServerP50Millis = histQuantile(sh, 0.50) / 1e6
			pr.ServerP95Millis = histQuantile(sh, 0.95) / 1e6
			pr.ServerP99Millis = histQuantile(sh, 0.99) / 1e6
			if pr.P99Millis > 0 {
				pr.P99GapMillis = pr.P99Millis - pr.ServerP99Millis
			}
		}
		rep.Phases = append(rep.Phases, pr)
	}

	// Fault and lifecycle outcomes, with recovery measured from the
	// target node's collector timeline.
	rep.Faults, rep.Lifecycle = sched.reports(colls, runStart)

	var gateErrs []string
	sched.mu.Lock()
	gateErrs = append(gateErrs, sched.errs...)
	sched.mu.Unlock()
	if driveErr != nil {
		gateErrs = append(gateErrs, fmt.Sprintf("driver: %v", driveErr))
	}
	if flushErr != nil {
		gateErrs = append(gateErrs, fmt.Sprintf("flush: %v", flushErr))
	}
	if !healthy {
		gateErrs = append(gateErrs, "a daemon never returned to healthy after the run")
	}

	// Server-side truth: the applied edge count and the estimate.
	var refMatch *bool
	var res client.Result
	queried := false
	if flushErr == nil && driveErr == nil {
		var qerr error
		var applied int64
		res, applied, qerr = fl.queryApplied()
		if qerr != nil {
			gateErrs = append(gateErrs, fmt.Sprintf("final query: %v", qerr))
		} else {
			queried = true
			rep.EdgesApplied = applied
			rep.EdgesSent = fl.totalSent()
			rep.Coverage = res.Coverage
			if spec.Gates.RequireReferenceMatch {
				ok, detail := referenceMatch(spec, fl, m, n, k, res)
				refMatch = &ok
				if !ok {
					opts.logf("[%s] reference mismatch: %s", spec.Name, detail)
				}
			}
		}
	} else {
		rep.EdgesSent = fl.totalSent()
	}

	// Cluster runs close with the convergence protocol: wait for every
	// follower to reach the leader's durable head with a byte-equal
	// digest, then prove a staleness-bounded follower read answers
	// exactly like the leader.
	var replicaConv *bool
	var replicaDetail string
	if spec.clustered() {
		rows, leader, cerr := ns.awaitConvergence(spec.Name, 30*time.Second)
		rep.Replicas, rep.Leader = rows, leader
		if queried {
			ok := cerr == nil
			if cerr != nil {
				replicaDetail = cerr.Error()
			} else if sres, serr := fl.csess[0].QueryStale(spec.Cluster.MaxStale.Duration); serr != nil {
				ok, replicaDetail = false, fmt.Sprintf("follower read: %v", serr)
			} else if sres.Coverage != res.Coverage || sres.Edges != res.Edges {
				ok, replicaDetail = false, fmt.Sprintf(
					"follower read {cov=%g edges=%d} != leader {cov=%g edges=%d}",
					sres.Coverage, sres.Edges, res.Coverage, res.Edges)
			}
			replicaConv = &ok
			if !ok {
				opts.logf("[%s] replica divergence: %s", spec.Name, replicaDetail)
			}
		}
	}
	rep.ServerCounters = sumCounters(ns.liveHTTPAddrs())

	haltColls()

	rep.Gates = evaluateGates(spec, rep, refMatch, replicaConv, replicaDetail, opts.Baseline)
	rep.Pass = len(gateErrs) == 0
	for _, g := range rep.Gates {
		if !g.Pass {
			rep.Pass = false
		}
	}
	if len(gateErrs) > 0 {
		rep.Error = gateErrs[0]
		for _, e := range gateErrs[1:] {
			rep.Error += "; " + e
		}
	}
	opts.logf("[%s] done: pass=%v throughput=%.0f edges/s applied=%d/%d",
		spec.Name, rep.Pass, rep.Throughput(), rep.EdgesApplied, rep.EdgesSent)
	return rep, nil
}

func rateStr(rate float64) string {
	if rate == 0 {
		return "closed-loop"
	}
	return fmt.Sprintf("%.0f edges/s", rate)
}

// referenceMatch replays the exact sent multiset (per-connection cycled
// slices) into a single same-seed in-process estimator and compares. The
// bit-identity invariant — the sharded, restarted, fault-ridden server
// must answer exactly like one estimator that saw the whole stream —
// is the strongest end-to-end assertion the harness has: it proves no
// edge was lost, duplicated into the sketch, or misapplied, across every
// kill, partition, and disk fault the schedule threw at the daemon.
func referenceMatch(spec *Spec, fl *fleet, m, n, k int, got client.Result) (bool, string) {
	ref, err := streamcover.NewEstimator(m, n, k, spec.Workload.Alpha, streamcover.WithSeed(spec.Seed))
	if err != nil {
		return false, err.Error()
	}
	defer ref.Close()
	buf := make([]streamcover.Edge, 0, 8192)
	for ci, edges := range fl.streams {
		if len(edges) == 0 {
			continue
		}
		// The driver walks its slice sequentially and wraps, so the sent
		// multiset is exactly the first sent[ci] edges of that cycle.
		for j := int64(0); j < fl.sent[ci]; j++ {
			buf = append(buf, edges[j%int64(len(edges))])
			if len(buf) == cap(buf) {
				if err := ref.ProcessBatch(buf); err != nil {
					return false, err.Error()
				}
				buf = buf[:0]
			}
		}
	}
	if len(buf) > 0 {
		if err := ref.ProcessBatch(buf); err != nil {
			return false, err.Error()
		}
	}
	res := ref.Result()
	if res.Coverage != got.Coverage || res.Feasible != got.Feasible ||
		ref.Edges() != got.Edges || !slices.Equal(res.SetIDs, got.SetIDs) {
		return false, fmt.Sprintf(
			"reference{cov=%g feasible=%v edges=%d sets=%v} != server{cov=%g feasible=%v edges=%d sets=%v}",
			res.Coverage, res.Feasible, ref.Edges(), res.SetIDs,
			got.Coverage, got.Feasible, got.Edges, got.SetIDs)
	}
	return true, ""
}

// scheduler fires the spec's fault windows and lifecycle events at their
// offsets from run start, on one goroutine, and records when each
// actually ran.
type scheduler struct {
	events []schedEvent
	opts   Options
	name   string
	start0 time.Time
	done   chan struct{}

	mu        sync.Mutex
	faultRecs []faultRec
	lifeRecs  []lifeRec
	errs      []string
}

type schedEvent struct {
	at   time.Duration
	desc string
	fire func(s *scheduler, now time.Time)
}

type faultRec struct {
	kind       string
	node       int
	start, end time.Time
}

type lifeRec struct {
	action string
	node   int
	leader string // failover: the promoted node
	at     time.Time
}

func newScheduler(spec *Spec, ns *nodeSet, runStart time.Time, opts Options) *scheduler {
	s := &scheduler{opts: opts, name: spec.Name, start0: runStart, done: make(chan struct{})}
	for _, f := range spec.Faults {
		f := f
		d := ns.nodes[f.Node]
		idx := -1 // resolved at start-fire time
		s.events = append(s.events, schedEvent{
			at:   f.At.Duration,
			desc: fmt.Sprintf("fault %s on (node %d)", f.Kind, f.Node),
			fire: func(s *scheduler, now time.Time) {
				s.mu.Lock()
				s.faultRecs = append(s.faultRecs, faultRec{kind: f.Kind, node: f.Node, start: now})
				idx = len(s.faultRecs) - 1
				s.mu.Unlock()
				d.applyFault(f, true)
				if f.Kind == "drop_conns" {
					// Instantaneous: the window closes as it opens.
					s.mu.Lock()
					s.faultRecs[idx].end = now
					s.mu.Unlock()
				}
			},
		})
		if f.Kind == "drop_conns" {
			continue
		}
		s.events = append(s.events, schedEvent{
			at:   f.At.Duration + f.Duration.Duration,
			desc: fmt.Sprintf("fault %s off (node %d)", f.Kind, f.Node),
			fire: func(s *scheduler, now time.Time) {
				d.applyFault(f, false)
				s.mu.Lock()
				if idx >= 0 {
					s.faultRecs[idx].end = now
				}
				s.mu.Unlock()
			},
		})
	}
	for _, e := range spec.Lifecycle {
		e := e
		s.events = append(s.events, schedEvent{
			at:   e.At.Duration,
			desc: "lifecycle " + e.Action,
			fire: func(s *scheduler, now time.Time) {
				var err error
				rec := lifeRec{action: e.Action, node: e.Node, at: now}
				switch e.Action {
				case "kill":
					ns.nodes[e.Node].kill()
				case "restart":
					err = ns.nodes[e.Node].start()
				case "checkpoint":
					err = ns.nodes[e.Node].checkpoint()
				case "failover":
					rec.leader, err = ns.failover(spec.Name)
					if err == nil {
						s.opts.logf("[%s] failover: promoted %s", s.name, rec.leader)
					}
				}
				s.mu.Lock()
				s.lifeRecs = append(s.lifeRecs, rec)
				if err != nil {
					s.errs = append(s.errs, fmt.Sprintf("%s: %v", e.Action, err))
				}
				s.mu.Unlock()
			},
		})
	}
	sort.SliceStable(s.events, func(i, j int) bool { return s.events[i].at < s.events[j].at })
	return s
}

func (s *scheduler) start() {
	go func() {
		defer close(s.done)
		for _, ev := range s.events {
			time.Sleep(time.Until(s.start0.Add(ev.at)))
			now := time.Now()
			s.opts.logf("[%s] t=%.2fs %s", s.name, now.Sub(s.start0).Seconds(), ev.desc)
			ev.fire(s, now)
		}
	}()
}

func (s *scheduler) wait() { <-s.done }

// reports turns the recorded timeline into report rows, deriving each
// recovery time from the target node's collector samples.
func (s *scheduler) reports(colls []*collector, runStart time.Time) ([]FaultReport, []LifecycleReport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var faults []FaultReport
	for _, r := range s.faultRecs {
		fr := FaultReport{
			Kind:         r.kind,
			Node:         r.node,
			StartSeconds: r.start.Sub(runStart).Seconds(),
			EndSeconds:   r.end.Sub(runStart).Seconds(),
		}
		if rec := colls[r.node].recoveryAfter(r.end); rec >= 0 {
			fr.RecoveryMillis = float64(rec) / 1e6
		} else {
			fr.RecoveryMillis = -1
		}
		faults = append(faults, fr)
	}
	var life []LifecycleReport
	for _, r := range s.lifeRecs {
		lr := LifecycleReport{Action: r.action, Node: r.node, AtSeconds: r.at.Sub(runStart).Seconds(), Leader: r.leader}
		if r.action == "restart" {
			if rec := colls[r.node].recoveryAfter(r.at); rec >= 0 {
				lr.RecoveryMillis = float64(rec) / 1e6
			} else {
				lr.RecoveryMillis = -1
			}
		}
		life = append(life, lr)
	}
	return faults, life
}
