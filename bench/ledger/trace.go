package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"streamcover"
	"streamcover/internal/core"
	"streamcover/internal/snapshot"
	"streamcover/internal/stream"
	"streamcover/internal/wal"
	"streamcover/internal/wire"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Times are nanoseconds since the tracer's
// epoch; Parent indexes the enclosing span (-1 for a root) and Batch is
// the replayed batch the call served.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Batch  int32  `json:"batch"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A tracer that is off records nothing and reads no clock, which is what
// the overhead measurement compares against.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	open  []int32
	batch int32
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

func (t *tracer) begin(name string) int32 {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch).Nanoseconds(), Parent: parent, Batch: t.batch})
	id := int32(len(t.spans) - 1)
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.epoch).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// layerTimes sums, per span name, the inclusive time and the self time:
// a span's duration minus the part of its interval that its child spans
// cover (overlapping children are counted once, and a child sticking out
// of its parent is clipped to it).
func layerTimes(spans []span) (total, self map[string]time.Duration) {
	total, self = map[string]time.Duration{}, map[string]time.Duration{}
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	for i, s := range spans {
		dur := s.End - s.Start
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		for j, v := range ivs {
			if j == 0 || v.a > curB {
				covered += curB - curA
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		covered += curB - curA
		total[s.Name] += time.Duration(dur)
		self[s.Name] += time.Duration(dur - covered)
	}
	return total, self
}

// tracedOracle wraps the paper's oracle so the time each (guess,
// repetition) unit spends in LargeCommon, LargeSet and SmallSet shows as
// a core.oracle span inside the core.estimator span.
type tracedOracle struct {
	*core.Oracle
	tr *tracer
}

func (o tracedOracle) ProcessBatch(edges []stream.Edge, sc *core.BatchScratch) {
	id := o.tr.begin("core.oracle")
	o.Oracle.ProcessBatch(edges, sc)
	o.tr.end(id)
}

// pipeline replays batches through the layers' public functions in the
// daemon's order: wire encode (the client's side), wire decode, WAL
// append and fsync wait, the facade's columnar apply, then — for the
// per-layer split — the same batch through a bare core estimator whose
// oracles are traced, and the core prepass on its own scratch.
type pipeline struct {
	tr      *tracer
	facade  []*streamcover.Estimator
	core    []*core.Estimator
	logs    []*wal.Log
	seqs    []uint64
	scratch *core.BatchScratch
	cols    stream.Columns
	payload []byte
	rec     []byte
	units   int // oracle units built per session
	walB    int64
	walDirs []string
}

func newPipeline(tr *tracer, sessions []sessionSpec, walDir string) (*pipeline, error) {
	p := &pipeline{tr: tr, scratch: core.NewBatchScratch(), seqs: make([]uint64, len(sessions))}
	for i, s := range sessions {
		f, err := streamcover.NewEstimator(s.M, s.N, s.K, s.Alpha, streamcover.WithSeed(s.Seed), streamcover.WithParallelism(1))
		if err != nil {
			return nil, err
		}
		units := 0
		// The same construction as the facade's: practical parameters and
		// one rng seeded by the session seed, drawn in the same order.
		factory := func(d core.Derived, rng *rand.Rand) core.CoverageOracle {
			units++
			return tracedOracle{core.NewOracle(d, rng), tr}
		}
		c, err := core.NewEstimator(s.M, s.N, s.K, s.Alpha, core.Practical(), factory, rand.New(rand.NewSource(s.Seed)))
		if err != nil {
			return nil, err
		}
		ld := filepath.Join(walDir, fmt.Sprint(i))
		log, err := wal.Open(ld, wal.Options{})
		if err != nil {
			return nil, err
		}
		p.facade, p.core, p.logs = append(p.facade, f), append(p.core, c), append(p.logs, log)
		p.walDirs = append(p.walDirs, ld)
		p.units = units
	}
	return p, nil
}

func (p *pipeline) close() {
	for _, l := range p.logs {
		l.Close()
	}
}

// step replays one batch. Every workload batch holds at most 8192 edges,
// below the chunk size at which the core estimator splits a batch, so
// the stand-alone prepass indexes the batch whole, as the estimator does.
func (p *pipeline) step(s sessionSpec, si int, sets, elems []uint32) error {
	tr := p.tr
	p.seqs[si]++
	root := tr.begin("batch")
	id := tr.begin("wire.encode")
	p.payload = wire.EncodeIngestSeqColumns(p.payload, s.Name, 1, p.seqs[si], sets, elems, s.M, s.N)
	tr.end(id)
	id = tr.begin("wire.decode")
	_, _, _, _, _, err := wire.DecodeIngestSeqInto(p.payload, &p.cols)
	tr.end(id)
	if err != nil {
		return err
	}
	p.rec = append(append(p.rec[:0], wire.TIngestSeq), p.payload...)
	p.walB += int64(len(p.rec)) + 8 // the WAL's record header
	id = tr.begin("wal.append")
	_, wait, err := p.logs[si].AppendStart(p.rec)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("wal.sync_wait")
	err = wait()
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("streamcover.process")
	err = p.facade[si].ProcessColumns(p.cols.Sets, p.cols.Elems)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("core.estimator")
	p.core[si].ProcessColumns(p.cols.Sets, p.cols.Elems)
	tr.end(id)
	id = tr.begin("core.prepass")
	p.scratch.IndexColumns(p.cols.Sets, p.cols.Elems)
	tr.end(id)
	tr.end(root)
	return nil
}

// layers is the traced replay's outcome: per-layer figures plus the
// spans behind them.
type layers struct {
	m       map[string]float64
	spans   []span
	edges   int
	batches int
	note    string
}

// replaySessions caps how many sessions the traced replay keeps state
// for. Multi-session workloads replay the batches of their hottest
// sessions only (the generator numbers sessions by Zipf rank), so the
// in-process state stays a small multiple of one session's.
const replaySessions = 8

// traceReplay replays the workload's stream in-process on one goroutine
// for up to budget. Tracing alternates within each pair of consecutive
// batches — spans on for the first of pair 0, the second of pair 1, and
// so on — and the tracing overhead is the median over pairs of the traced
// batch's per-edge time over its untraced neighbour's, less one. The
// traced batches give the per-layer times; the final state then feeds the
// query, snapshot and WAL-replay layers.
func traceReplay(in *inputs, feed []batch, dir string, walDirs []string, budget time.Duration) (*layers, error) {
	sessions := in.Sessions[:min(len(in.Sessions), replaySessions)]
	tr := newTracer(true)
	p, err := newPipeline(tr, sessions, filepath.Join(dir, "wal"))
	if err != nil {
		return nil, err
	}
	defer p.close()

	var edgesOn, edgesOff, batchesOn int
	var ratios []float64
	var pairOn, pairOff float64 // per-edge seconds of the current pair's batches
	var replayed []batch
	start := time.Now()
	for _, b := range feed {
		if b.Session >= len(sessions) {
			continue
		}
		if len(replayed) >= 4 && time.Since(start) > budget {
			break
		}
		sets, elems := b.columns()
		i := len(replayed)
		tr.on = (i%2 == 0) == (i/2%2 == 0)
		tr.batch = int32(i)
		t := time.Now()
		if err := p.step(sessions[b.Session], b.Session, sets, elems); err != nil {
			return nil, err
		}
		perEdge := time.Since(t).Seconds() / float64(len(b.Edges))
		if tr.on {
			pairOn = perEdge
			edgesOn += len(b.Edges)
			batchesOn++
		} else {
			pairOff = perEdge
			edgesOff += len(b.Edges)
		}
		if i%2 == 1 {
			ratios = append(ratios, pairOn/pairOff)
		}
		replayed = append(replayed, b)
	}

	// The traced core estimator must agree with the facade it shadows.
	for i := range sessions {
		f, c := p.facade[i].Result(), p.core[i].Result()
		if f.Coverage != c.Value || f.Feasible != c.Feasible || !slices.Equal(f.SetIDs, c.SetIDs) {
			return nil, fmt.Errorf("traced core estimator disagrees with the facade on session %d", i)
		}
	}

	total, self := layerTimes(tr.spans)
	perEdge := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(edgesOn) }
	perBatch := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(batchesOn) }
	m := map[string]float64{
		"wire.encode_ns_per_edge":          perEdge(total["wire.encode"]),
		"wire.decode_ns_per_edge":          perEdge(total["wire.decode"]),
		"wal.append_ns_per_batch":          perBatch(total["wal.append"]),
		"wal.sync_wait_ns_per_batch":       perBatch(total["wal.sync_wait"]),
		"wal.bytes_per_edge":               float64(p.walB) / float64(edgesOn+edgesOff),
		"streamcover.process_ns_per_edge":  perEdge(total["streamcover.process"]),
		"streamcover.validate_ns_per_edge": perEdge(total["streamcover.process"] - total["core.estimator"]),
		"core.estimator_ns_per_edge":       perEdge(total["core.estimator"]),
		"core.oracle_ns_per_edge":          perEdge(total["core.oracle"]),
		"core.prepass_ns_per_edge":         perEdge(total["core.prepass"]),
		"core.reduce_ns_per_edge":          perEdge(self["core.estimator"] - total["core.prepass"]),
		"core.units":                       float64(p.units),
		"trace.overhead_frac":              median(ratios) - 1,
	}
	l := &layers{m: m, spans: tr.spans, edges: edgesOn, batches: batchesOn}
	l.note = fmt.Sprintf("traced replay: %d batches of %d sessions, %d edges; tracing overhead from %d batch pairs",
		len(replayed), len(sessions), edgesOn+edgesOff, len(ratios))

	if err := stateLayers(m, p.facade[0], dir); err != nil {
		return nil, err
	}
	if err := allocLayers(m, p, sessions, replayed); err != nil {
		return nil, err
	}
	if walDirs == nil {
		p.close()
		walDirs = p.walDirs
	}
	if err := replayLayer(m, walDirs); err != nil {
		return nil, err
	}
	if err := scalarLayer(m, sessions, replayed); err != nil {
		return nil, err
	}
	return l, nil
}

// allocLayers counts heap allocations per batch of the wire decoder and
// the core estimator, on up to 16 of the replayed batches fed once more
// to the core estimators (the counting stops the world, so it stays out
// of the timed replay; replaying a batch twice is a valid stream).
func allocLayers(m map[string]float64, p *pipeline, sessions []sessionSpec, replayed []batch) error {
	var ms runtime.MemStats
	mallocs := func() uint64 { runtime.ReadMemStats(&ms); return ms.Mallocs }
	var dec, est uint64
	n := min(16, len(replayed))
	for _, b := range replayed[:n] {
		sets, elems := b.columns()
		s := sessions[b.Session]
		payload := wire.EncodeIngestSeqColumns(nil, s.Name, 1, 1, sets, elems, s.M, s.N)
		m0 := mallocs()
		_, _, _, _, _, err := wire.DecodeIngestSeqInto(payload, &p.cols)
		m1 := mallocs()
		if err != nil {
			return err
		}
		p.core[b.Session].ProcessColumns(p.cols.Sets, p.cols.Elems)
		m2 := mallocs()
		dec += m1 - m0
		est += m2 - m1
	}
	m["wire.decode_allocs_per_batch"] = float64(dec) / float64(n)
	m["core.allocs_per_batch"] = float64(est) / float64(n)
	return nil
}

// timeMedian runs f reps times and returns the median wall time in ms.
func timeMedian(reps int, f func() error) (float64, error) {
	var ts []float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ts = append(ts, float64(time.Since(t).Nanoseconds())/1e6)
	}
	return median(ts), nil
}

// stateLayers times the whole-state operations on the final facade
// state: what a query does (Clone, Merge, Result) and what a checkpoint
// and a recovery do (Encode, snapshot write and read, Decode). Each is
// the median of three calls.
func stateLayers(m map[string]float64, est *streamcover.Estimator, dir string) error {
	const reps = 3
	var blob []byte
	path := filepath.Join(dir, "state.scsn")
	steps := []struct {
		name string
		f    func() error
	}{
		{"streamcover.clone_ms", func() error { _, err := est.Clone(); return err }},
		{"streamcover.result_ms", func() error { est.Result(); return nil }},
		{"streamcover.encode_ms", func() (err error) { blob, err = est.Encode(); return err }},
		{"snapshot.write_ms", func() error { return snapshot.WriteFile(path, blob) }},
		{"snapshot.read_ms", func() error { _, err := snapshot.ReadFile(path); return err }},
		{"streamcover.decode_ms", func() error { _, err := streamcover.DecodeEstimator(blob); return err }},
	}
	for _, st := range steps {
		v, err := timeMedian(reps, st.f)
		if err != nil {
			return fmt.Errorf("%s: %w", st.name, err)
		}
		m[st.name] = v
	}
	m["streamcover.encoded_bytes"] = float64(len(blob))
	// A query folds every shard worker's state into one: time a merge of
	// the state into a fresh copy of itself, one copy per call.
	var merges []float64
	for i := 0; i < reps; i++ {
		c, err := est.Clone()
		if err != nil {
			return err
		}
		t := time.Now()
		if err := c.Merge(est); err != nil {
			return err
		}
		merges = append(merges, float64(time.Since(t).Nanoseconds())/1e6)
	}
	m["streamcover.merge_ms"] = median(merges)
	return nil
}

// replayLayer times (*wal.Log).Replay over the given session logs,
// excluding the time spent in the callback, which decodes each record to
// count its edges.
func replayLayer(m map[string]float64, dirs []string) error {
	var inCallback, total time.Duration
	edges := 0
	var cols stream.Columns
	for _, d := range dirs {
		log, err := wal.Open(d, wal.Options{NoSync: true})
		if err != nil {
			return err
		}
		t := time.Now()
		err = log.Replay(1, func(_ uint64, rec []byte) error {
			c := time.Now()
			defer func() { inCallback += time.Since(c) }()
			if len(rec) == 0 || rec[0] != wire.TIngestSeq {
				return fmt.Errorf("unexpected WAL record")
			}
			if _, _, _, _, _, err := wire.DecodeIngestSeqInto(rec[1:], &cols); err != nil {
				return err
			}
			edges += cols.Len()
			return nil
		})
		total += time.Since(t)
		log.Close()
		if err != nil {
			return fmt.Errorf("replaying %s: %w", d, err)
		}
	}
	if edges == 0 {
		return fmt.Errorf("no WAL records in %v", dirs)
	}
	m["wal.replay_ns_per_edge"] = float64((total - inCallback).Nanoseconds()) / float64(edges)
	return nil
}

// scalarLayer times the facade's per-edge Process over the first 100k
// replayed edges (or 2 s, whichever ends first) on fresh estimators.
func scalarLayer(m map[string]float64, sessions []sessionSpec, replayed []batch) error {
	ests := map[int]*streamcover.Estimator{}
	edges := 0
	start := time.Now()
	var busy time.Duration
loop:
	for _, b := range replayed {
		est := ests[b.Session]
		if est == nil {
			s := sessions[b.Session]
			var err error
			est, err = streamcover.NewEstimator(s.M, s.N, s.K, s.Alpha, streamcover.WithSeed(s.Seed), streamcover.WithParallelism(1))
			if err != nil {
				return err
			}
			ests[b.Session] = est
		}
		t := time.Now()
		for _, e := range b.Edges {
			est.Process(e)
		}
		busy += time.Since(t)
		edges += len(b.Edges)
		if edges >= 100_000 || time.Since(start) > 2*time.Second {
			break loop
		}
	}
	m["streamcover.process_scalar_ns_per_edge"] = float64(busy.Nanoseconds()) / float64(edges)
	return nil
}

// writeSpans saves the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
