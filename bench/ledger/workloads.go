package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"streamcover"
	"streamcover/internal/client"
)

// spec sizes one workload. The same code runs the full-size table below
// and the toy sizes of the smoke test.
type spec struct {
	Name              string
	Why               string
	Loop              string // "closed", "open" or "restart", for the report
	Sessions          int
	M, N, K           int
	Alpha             float64
	Batch             int     // edges per timed-window batch
	PreloadPerSession int     // set-up edges per session
	PreloadBatch      int     // set-up batch size
	Tail              int     // crash-recover: edges acked after the checkpoint
	PostWrites        int     // crash-recover: batches written at each restart
	ClosedLoopRate    float64 // closed loop: nominal edges/s; the window writes this many per second of --seconds
	Rate              float64 // open loop: offered edges/s
	QueryRate         float64 // open loop: offered queries/s
	IdleQueries       int     // closed loop: back-to-back queries after the barrier
	Zipf              float64 // session skew of multi-session streams
	MaxPending        int     // client in-flight frame window (0: client default)
	MemBudget         int64   // kcoverd -mem-budget (0: flag not passed)
}

// workloads is the benchmark's workload table. Sizes were checked on a
// shared 2-core host so that every run fits its time cap and the daemon
// stays below saturation on the open loops.
var workloads = []spec{
	{
		Name: bulk, Loop: "closed",
		Why:      "one large session (m=2000, n=100000) under a closed write loop: bound by the estimator's per-edge cost, state larger than the caches",
		Sessions: 1, M: 2000, N: 100000, K: 40, Alpha: 8,
		Batch: 8192, PreloadPerSession: 200_000, PreloadBatch: 8192,
		ClosedLoopRate: 150_000, IdleQueries: 20, MaxPending: 8,
	},
	{
		Name: paced, Loop: "open",
		Why:      "48 small Zipf(1.1) tenants under a memory budget: bound per batch by decode, WAL fsync and cold-tenant rehydration",
		Sessions: 48, M: 60, N: 500, K: 5, Alpha: 4,
		Batch: 512, PreloadBatch: 512,
		Rate: 25_000, QueryRate: 10, Zipf: 1.1, MemBudget: 180_000_000,
	},
	{
		Name: mix, Loop: "open",
		Why:      "reads beside writes on one mid-size session: query clones ride the worker queues with the batches",
		Sessions: 1, M: 200, N: 2000, K: 10, Alpha: 4,
		Batch: 2048, PreloadPerSession: 500_000, PreloadBatch: 8192,
		Rate: 100_000, QueryRate: 25,
	},
	{
		Name: crash, Loop: "restart",
		Why:      "SIGKILL and restart of a large session with a WAL tail past its checkpoint: snapshot decode plus single-goroutine WAL replay",
		Sessions: 1, M: 2000, N: 20000, K: 40, Alpha: 8,
		Batch: 8192, PreloadPerSession: 200_000, PreloadBatch: 8192,
		Tail: 100_000, PostWrites: 1,
	},
}

func workloadByName(name string) (spec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return spec{}, false
}

// run is one end-to-end run's samples and failure accounting.
type run struct {
	attempted, failed int
	errs              []string

	setups  []time.Duration
	eps     []float64 // applied edges/s: one sample per window or recovery
	acks    []time.Duration
	queries []time.Duration
	heap    []float64 // daemon live heap in MB, after a forced GC
	peakRSS []float64 // daemon VmHWM in MB
	late    []time.Duration

	// Daemon CPU over the timed windows, for the per-edge attribution,
	// with the edges applied and queries answered inside those windows.
	cpu           time.Duration
	wall          time.Duration
	edges         int64
	windowQueries int

	counters map[string]int64 // /metrics counter deltas across the timed window

	pristine string // crash-recover: the crashed daemon's data directory
	tail     int    // crash-recover: WAL-tail edges replayed per recovery
}

// op counts one attempted operation or correctness check and, if it
// failed, one failure.
func (r *run) op(err error) bool {
	r.attempted++
	if err != nil {
		r.fail("%v", err)
		return false
	}
	return true
}

// fail records a failed operation or check without counting an attempt.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// env is what a workload run needs besides its spec.
type env struct {
	bin     string  // kcoverd binary
	dir     string  // scratch directory for this run's data
	seconds float64 // timed window length
	setups  int     // set-ups to time (the last one is kept)
}

// live is a set-up daemon ready for its timed window.
type live struct {
	d   *daemon
	dir string
	pre client.Result // crash-recover: the answer before the crash
}

// runSetups performs n complete set-ups, timing each, and keeps the last.
// Repeating the set-up lets setup_s report a median.
func runSetups(r *run, e env, sp spec, setup func(dir string) (*live, error)) (*live, error) {
	var lv *live
	for i := 0; i < e.setups; i++ {
		dir := filepath.Join(e.dir, "setup-"+strconv.Itoa(i))
		start := time.Now()
		l, err := setup(dir)
		if err != nil {
			return nil, fmt.Errorf("%s set-up %d: %w", sp.Name, i, err)
		}
		r.setups = append(r.setups, time.Since(start))
		if i < e.setups-1 {
			l.d.kill()
			os.RemoveAll(dir)
		}
		lv = l
	}
	return lv, nil
}

func daemonFlags(sp spec) []string {
	if sp.MemBudget > 0 {
		return []string{"-mem-budget", strconv.FormatInt(sp.MemBudget, 10)}
	}
	return nil
}

// createAll opens every session of the workload on c.
func createAll(c *client.Client, in *inputs) ([]*client.Session, error) {
	out := make([]*client.Session, len(in.Sessions))
	for i, s := range in.Sessions {
		sess, err := c.Create(s.Name, s.M, s.N, s.K, s.Alpha, s.Seed)
		if err != nil {
			return nil, err
		}
		out[i] = sess
	}
	return out, nil
}

// preload starts a daemon on dir and sends the workload's preload,
// ending on a query per session: an ack only waits for the WAL, while a
// query rides the worker queues behind every batch, so set-up ends with
// everything applied.
func preload(sp spec, in *inputs, bin, dir string) (*daemon, *client.Client, []*client.Session, []client.Result, error) {
	d, err := startDaemon(bin, dir, daemonFlags(sp)...)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	c, err := client.Dial(d.Ingest, client.WithBatchSize(sp.PreloadBatch))
	if err != nil {
		d.kill()
		return nil, nil, nil, nil, err
	}
	fail := func(err error) (*daemon, *client.Client, []*client.Session, []client.Result, error) {
		c.Close()
		d.kill()
		return nil, nil, nil, nil, err
	}
	sess, err := createAll(c, in)
	if err != nil {
		return fail(err)
	}
	for _, b := range in.Preload {
		if err := sess[b.Session].Send(b.Edges); err != nil {
			return fail(err)
		}
	}
	answers := make([]client.Result, len(sess))
	for i, s := range sess {
		if answers[i], err = s.Query(); err != nil {
			return fail(err)
		}
	}
	return d, c, sess, answers, nil
}

// ackLog records when each sequenced batch was acknowledged. Acks on one
// connection arrive in send order, so the k-th entry belongs to the k-th
// batch written.
type ackLog struct {
	mu sync.Mutex
	at []time.Time
}

func (a *ackLog) observe(int, time.Duration) {
	now := time.Now()
	a.mu.Lock()
	a.at = append(a.at, now)
	a.mu.Unlock()
}

func (a *ackLog) times() []time.Time {
	a.mu.Lock()
	defer a.mu.Unlock()
	return slices.Clone(a.at)
}

// pairAcks turns due times and ack times into latencies.
func pairAcks(r *run, due, acked []time.Time) {
	if len(acked) != len(due) {
		r.fail("%d batches written but %d acknowledged", len(due), len(acked))
	}
	for k := 0; k < len(due) && k < len(acked); k++ {
		r.acks = append(r.acks, acked[k].Sub(due[k]))
	}
}

// window brackets a timed window with daemon CPU and counter readings.
type window struct {
	d        *daemon
	start    time.Time
	cpu0     time.Duration
	counters map[string]int64
}

func openWindow(d *daemon) (*window, error) {
	w := &window{d: d}
	var err error
	if w.counters, err = d.counters(); err != nil {
		return nil, err
	}
	if w.cpu0, err = d.cpu(); err != nil {
		return nil, err
	}
	w.start = time.Now()
	return w, nil
}

// close ends the window at end, charging its CPU and counter deltas and
// the applied edges to r, then reads the daemon's memory.
func (w *window) close(r *run, end time.Time, edges int64) error {
	cpu1, err := w.d.cpu()
	if err != nil {
		return err
	}
	after, err := w.d.counters()
	if err != nil {
		return err
	}
	r.cpu += cpu1 - w.cpu0
	r.wall += end.Sub(w.start)
	r.edges += edges
	if r.counters == nil {
		r.counters = map[string]int64{}
	}
	for k, v := range after {
		r.counters[k] += v - w.counters[k]
	}
	return readMemory(r, w.d)
}

// readMemory records the daemon's peak resident set and, after forcing a
// garbage collection, its live heap. The peak depends on when the
// collector happened to run while the state was built; the live heap is
// what the state occupies.
func readMemory(r *run, d *daemon) error {
	peak, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	heap, err := d.liveHeapMB()
	if err != nil {
		return err
	}
	r.peakRSS = append(r.peakRSS, peak)
	r.heap = append(r.heap, heap)
	return nil
}

// spinWindow is how much of each open-loop wait the generator spends
// yielding in a loop instead of sleeping. Go's timers wake through a
// poller with millisecond resolution, so a plain sleep overshoots its
// due time by up to a millisecond before any scheduling delay.
const spinWindow = time.Millisecond

// sleepUntil waits for an open-loop due time, recording how late the
// generator woke. A sender already behind schedule does not wait: its
// delay is the system's, and the due-time latency carries it.
func sleepUntil(due time.Time, late *[]time.Duration) {
	d := time.Until(due)
	if d <= 0 {
		return
	}
	if d > spinWindow {
		time.Sleep(d - spinWindow)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
	*late = append(*late, time.Since(due))
}

// reference computes the answers an in-process estimator gives for a
// session fed the given batch lists one after another, through the
// public facade with the session's own seed: one answer after each list.
// Each answer comes from a clone, as kcoverd answers a query: Result
// draws the reported sets from the estimator's rng, so a second Result
// on the same estimator would report other sets.
func reference(s sessionSpec, lists ...[]batch) ([]streamcover.Result, error) {
	est, err := streamcover.NewEstimator(s.M, s.N, s.K, s.Alpha, streamcover.WithSeed(s.Seed))
	if err != nil {
		return nil, err
	}
	defer est.Close()
	var out []streamcover.Result
	for _, bs := range lists {
		for _, b := range bs {
			if err := est.ProcessColumns(b.columns()); err != nil {
				return nil, err
			}
		}
		c, err := est.Clone()
		if err != nil {
			return nil, err
		}
		out = append(out, c.Result())
	}
	return out, nil
}

// sameAnswer compares the fields a daemon answer must share bit for bit
// with the in-process reference (SpaceWords may differ after merges).
func sameAnswer(what string, got client.Result, want streamcover.Result) error {
	if got.Coverage != want.Coverage || got.Feasible != want.Feasible || !slices.Equal(got.SetIDs, want.SetIDs) {
		return fmt.Errorf("%s: daemon answered coverage=%v feasible=%v sets=%v, reference coverage=%v feasible=%v sets=%v",
			what, got.Coverage, got.Feasible, got.SetIDs, want.Coverage, want.Feasible, want.SetIDs)
	}
	return nil
}

// checkSessions queries every session on c and compares it with the
// in-process reference over all batches sent to it.
func checkSessions(r *run, c *client.Client, in *inputs, sent [][]batch) {
	for i, s := range in.Sessions {
		res, err := c.Session(s.Name).Query()
		if !r.op(err) {
			continue
		}
		want := edgeCount(sent[i])
		if res.Edges != want {
			r.op(fmt.Errorf("%s: daemon applied %d edges, %d were sent", s.Name, res.Edges, want))
			continue
		}
		ref, err := reference(s, sent[i])
		if err != nil {
			r.op(err)
			continue
		}
		r.op(sameAnswer(s.Name, res, ref[0]))
	}
}

// bySession groups batch lists per session, in order.
func bySession(n int, lists ...[]batch) [][]batch {
	out := make([][]batch, n)
	for _, l := range lists {
		for _, b := range l {
			out[b.Session] = append(out[b.Session], b)
		}
	}
	return out
}

// runWorkload runs one workload end to end against kcoverd.
func runWorkload(e env, sp spec, in *inputs) (*run, error) {
	r := &run{}
	var err error
	switch sp.Loop {
	case "closed":
		err = runClosed(r, e, sp, in)
	case "open":
		err = runOpen(r, e, sp, in)
	case "restart":
		err = runRestart(r, e, sp, in)
	default:
		err = fmt.Errorf("unknown loop %q", sp.Loop)
	}
	return r, err
}

// runClosed is bulk-ingest: set-up preloads the session and records its
// answer; the timed window writes a fixed stream (sp.ClosedLoopRate ×
// --seconds edges) as fast as the client's in-flight window allows, then
// queries. A query rides the worker queues behind every batch, so its
// return marks the moment everything sent was applied — acks only wait
// for the WAL. The work is fixed rather than the time so that the state
// the window builds, and with it memory and query cost, does not depend
// on the host's speed. Back-to-back queries on the idle daemon follow.
func runClosed(r *run, e env, sp spec, in *inputs) error {
	var preAnswer client.Result
	lv, err := runSetups(r, e, sp, func(dir string) (*live, error) {
		d, c, _, answers, err := preload(sp, in, e.bin, dir)
		if err != nil {
			return nil, err
		}
		c.Close()
		preAnswer = answers[0]
		return &live{d: d, dir: dir}, nil
	})
	if err != nil {
		return err
	}
	defer lv.d.kill()

	acks := &ackLog{}
	opts := []client.Option{client.WithBatchSize(sp.Batch), client.WithAckObserver(acks.observe)}
	if sp.MaxPending > 0 {
		opts = append(opts, client.WithMaxPending(sp.MaxPending))
	}
	c, err := client.Dial(lv.d.Ingest, opts...)
	if err != nil {
		return err
	}
	defer c.Close()
	sess, err := createAll(c, in)
	if err != nil {
		return err
	}
	w, err := openWindow(lv.d)
	if err != nil {
		return err
	}
	var due []time.Time
	sent := 0
	for _, b := range in.Timed {
		due = append(due, time.Now())
		if !r.op(sess[b.Session].Send(b.Edges)) {
			break
		}
		sent += len(b.Edges)
	}
	res, err := sess[0].Query()
	end := time.Now()
	if r.op(err) {
		r.eps = append(r.eps, float64(sent)/end.Sub(w.start).Seconds())
		if want := edgeCount(in.Preload) + sent; res.Edges != want {
			r.op(fmt.Errorf("daemon applied %d edges, %d were sent", res.Edges, want))
		}
	}
	if err := w.close(r, end, int64(sent)); err != nil {
		return err
	}
	pairAcks(r, due, acks.times())
	for i := 0; i < sp.IdleQueries; i++ {
		t := time.Now()
		if r.op(func() error { _, err := sess[0].Query(); return err }()) {
			r.queries = append(r.queries, time.Since(t))
		}
	}
	lv.d.kill()

	// Correctness, outside every timed part: the set-up answer equals the
	// in-process estimator's over the preload prefix.
	ref, err := reference(in.Sessions[0], in.Preload)
	if err != nil {
		return err
	}
	r.op(sameAnswer("preload prefix", preAnswer, ref[0]))
	return nil
}

// runOpen is paced-tenants and query-mix: a writer connection sends the
// timed batches on a fixed schedule (sp.Rate edges/s) and a reader
// connection sends queries on another (sp.QueryRate/s). Every latency is
// measured from the moment the request was due, so a stall also delays
// the requests queued behind it.
func runOpen(r *run, e env, sp spec, in *inputs) error {
	lv, err := runSetups(r, e, sp, func(dir string) (*live, error) {
		d, c, _, _, err := preload(sp, in, e.bin, dir)
		if err != nil {
			return nil, err
		}
		c.Close()
		return &live{d: d, dir: dir}, nil
	})
	if err != nil {
		return err
	}
	defer lv.d.kill()

	acks := &ackLog{}
	wc, err := client.Dial(lv.d.Ingest, client.WithBatchSize(sp.Batch), client.WithAckObserver(acks.observe),
		client.WithFlushInterval(time.Millisecond))
	if err != nil {
		return err
	}
	defer wc.Close()
	rc, err := client.Dial(lv.d.Ingest)
	if err != nil {
		return err
	}
	defer rc.Close()
	wsess, err := createAll(wc, in)
	if err != nil {
		return err
	}
	w, err := openWindow(lv.d)
	if err != nil {
		return err
	}
	batchEvery := time.Duration(float64(sp.Batch) / sp.Rate * float64(time.Second))
	queryEvery := time.Duration(float64(time.Second) / sp.QueryRate)
	due := make([]time.Time, len(in.Timed))
	for k := range due {
		due[k] = w.start.Add(time.Duration(k) * batchEvery)
	}

	var wg sync.WaitGroup
	var wlate, rlate []time.Duration
	var werrs, rerrs []error
	var queries []time.Duration
	wg.Add(2)
	go func() {
		defer wg.Done()
		for k, b := range in.Timed {
			sleepUntil(due[k], &wlate)
			if err := wsess[b.Session].Send(b.Edges); err != nil {
				werrs = append(werrs, err)
				return
			}
		}
		// Flush pushes the write buffer and waits until every batch is
		// acknowledged.
		if err := wsess[0].Flush(); err != nil {
			werrs = append(werrs, err)
		}
	}()
	go func() {
		defer wg.Done()
		for j, target := range in.Queries {
			qdue := w.start.Add(time.Duration(j) * queryEvery)
			sleepUntil(qdue, &rlate)
			if _, err := rc.Session(in.Sessions[target].Name).Query(); err != nil {
				rerrs = append(rerrs, err)
				continue
			}
			queries = append(queries, time.Since(qdue))
		}
	}()
	wg.Wait()
	acked := acks.times()
	r.attempted += len(in.Timed) + len(in.Queries)
	for _, err := range append(werrs, rerrs...) {
		r.fail("%v", err)
	}
	r.queries = append(r.queries, queries...)
	r.windowQueries += len(queries)
	r.late = append(append(r.late, wlate...), rlate...)
	pairAcks(r, due, acked)
	sent := int64(edgeCount(in.Timed))
	end := time.Now()
	if len(acked) > 0 {
		end = acked[len(acked)-1]
		r.eps = append(r.eps, float64(edgeCount(in.Timed[:len(acked)]))/end.Sub(w.start).Seconds())
	}
	if err := w.close(r, end, sent); err != nil {
		return err
	}

	// Correctness, outside the timed window: every session's answer and
	// edge count against the in-process reference over all it was sent.
	checkSessions(r, rc, in, bySession(len(in.Sessions), in.Preload, in.Timed))
	return nil
}

// runRestart is crash-recover. Set-up ingests the preload, forces a
// checkpoint, acks a WAL tail past it, records the answer and SIGKILLs
// the daemon; its data directory is kept pristine. Each timed cycle
// restores a copy and starts kcoverd on it, with a query and a write due
// at the spawn: the time until each is answered is recovery as a reader
// and as a writer see it.
func runRestart(r *run, e env, sp spec, in *inputs) error {
	lv, err := runSetups(r, e, sp, func(dir string) (*live, error) {
		data := filepath.Join(dir, "data")
		d, c, sess, _, err := preload(sp, in, e.bin, data)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		fail := func(err error) (*live, error) {
			d.kill()
			return nil, err
		}
		if err := d.checkpoint(); err != nil {
			return fail(err)
		}
		for _, b := range in.Tail {
			if err := sess[0].Send(b.Edges); err != nil {
				return fail(err)
			}
		}
		if err := sess[0].Flush(); err != nil {
			return fail(err)
		}
		pre, err := sess[0].Query()
		if err != nil {
			return fail(err)
		}
		d.kill()
		return &live{d: d, dir: data, pre: pre}, nil
	})
	if err != nil {
		return err
	}
	r.pristine = lv.dir
	r.tail = edgeCount(in.Tail)
	s := in.Sessions[0]
	if want := edgeCount(in.Preload) + r.tail; lv.pre.Edges != want {
		r.op(fmt.Errorf("pre-crash: daemon applied %d edges, %d were sent", lv.pre.Edges, want))
	}
	// The answers before and after each cycle's write, from the
	// in-process reference.
	ref, err := reference(s, append(slices.Clone(in.Preload), in.Tail...), in.Post)
	if err != nil {
		return err
	}
	r.op(sameAnswer("pre-crash", lv.pre, ref[0]))

	deadline := time.Now().Add(seconds(e.seconds))
	for cycle := 0; cycle < 3 || time.Now().Before(deadline); cycle++ {
		dir := filepath.Join(e.dir, "cycle")
		if err := restoreCopy(lv.dir, dir); err != nil {
			return err
		}
		if err := recoverCycle(r, e, sp, s, dir, in.Post, lv.pre, ref[1]); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}

// recoverCycle is one crash-recover cycle on a restored data directory.
// A query and a write (the post batches) are both due at the spawn and
// go out on one connection, query first: a query racing a batch from
// another connection could see part of it. The query must return the
// pre-crash answer, and once the write is acknowledged the session must
// answer like the in-process reference fed the write too.
func recoverCycle(r *run, e env, sp spec, s sessionSpec, dir string, post []batch, pre client.Result, withPost streamcover.Result) error {
	spawn := time.Now()
	d, err := startDaemon(e.bin, dir, daemonFlags(sp)...)
	if err != nil {
		return err
	}
	defer d.kill()
	c, err := client.Dial(d.Ingest, client.WithBatchSize(sp.Batch))
	if err != nil {
		return err
	}
	defer c.Close()
	got, err := c.Session(s.Name).Query()
	answered := time.Now()
	if !r.op(err) {
		return nil
	}
	recovery := answered.Sub(spawn)
	cpu, err := d.cpu()
	if err != nil {
		return err
	}
	r.queries = append(r.queries, recovery)
	r.eps = append(r.eps, float64(r.tail)/recovery.Seconds())
	r.cpu += cpu
	r.wall += recovery
	r.edges += int64(r.tail)
	r.windowQueries++
	if got.Edges != pre.Edges || got.Coverage != pre.Coverage || got.Feasible != pre.Feasible || !slices.Equal(got.SetIDs, pre.SetIDs) {
		r.op(fmt.Errorf("recovered answer %+v differs from pre-crash %+v", got, pre))
	} else {
		r.op(nil)
	}

	sess, err := c.Create(s.Name, s.M, s.N, s.K, s.Alpha, s.Seed)
	for i := 0; err == nil && i < len(post); i++ {
		err = sess.Send(post[i].Edges)
	}
	if err == nil {
		err = sess.Flush()
	}
	if !r.op(err) {
		return nil
	}
	r.acks = append(r.acks, time.Since(spawn))
	after, err := sess.Query()
	if r.op(err) {
		if want := pre.Edges + edgeCount(post); after.Edges != want {
			r.op(fmt.Errorf("after recovery: daemon applied %d edges, want %d", after.Edges, want))
		} else {
			r.op(sameAnswer("after the first write", after, withPost))
		}
	}
	return readMemory(r, d)
}

// restoreCopy recreates dst as a copy of the crashed data directory src.
// Checkpoint files are hard-linked — kcoverd replaces a checkpoint by
// rename, never in place — and everything else (the WAL, which the
// recovered daemon appends to) is copied.
func restoreCopy(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	return filepath.WalkDir(src, func(path string, de os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if de.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if filepath.Ext(path) == ".scsn" {
			return os.Link(path, target)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
