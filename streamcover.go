package streamcover

import (
	"fmt"
	"math/rand"
	"slices"

	"streamcover/internal/core"
	"streamcover/internal/setsystem"
)

// Edge is one (set, element) arrival: element Elem belongs to set Set.
// Set IDs must lie in [0, m) and element IDs in [0, n) as declared to
// NewEstimator.
type Edge struct {
	Set  uint32
	Elem uint32
}

// Result is the outcome of a completed pass.
type Result struct {
	// Coverage estimates the optimal k-cover's size: with high
	// probability OPT/Õ(α) ≤ Coverage ≤ OPT.
	Coverage float64
	// Feasible is false when the optimum is below the smallest detectable
	// scale (Coverage is then 0).
	Feasible bool
	// SetIDs are up to k set IDs whose true coverage backs the estimate —
	// the α-approximate solution of the paper's reporting variant
	// (Theorem 3.2). May be shorter than k; padding with arbitrary
	// additional sets never decreases coverage.
	SetIDs []uint32
	// SpaceWords is the number of 64-bit words of state the estimator
	// retained — the quantity the paper's Õ(m/α² + k) bound governs.
	SpaceWords int
}

// Option customizes an Estimator.
type Option func(*config)

type config struct {
	seed   int64
	params core.Params
	// par is the batch-engine worker count (0 = GOMAXPROCS, the default).
	// It is an execution knob, not sketch state: it never affects results
	// or the Encode wire format, so Encode deliberately omits it.
	par int
}

// WithSeed fixes the random seed (default 1). Two estimators with equal
// dimensions, options and seed process identically.
func WithSeed(seed int64) Option {
	return func(c *config) { c.seed = seed }
}

// WithRepetitions sets the number of independent boosting repetitions per
// coverage guess (the paper's log(1/δ) loop; default 1). More repetitions
// lower the failure probability at proportional space and time cost.
func WithRepetitions(reps int) Option {
	return func(c *config) {
		if reps > 0 {
			c.params.Reps = reps
		}
	}
}

// WithGuessBase sets the ratio of the coverage-guess ladder (default 4;
// the paper uses 2). A smaller base tightens the approximation constant
// and increases space and time by the number of extra guesses.
func WithGuessBase(base float64) Option {
	return func(c *config) {
		if base > 1 {
			c.params.ZBase = base
		}
	}
}

// WithParallelism sets how many workers the batch engine fans each batch
// of every ingest call (Process*) across (default GOMAXPROCS; 1 disables
// the engine entirely). The coverage-guess ladder is embarrassingly parallel
// — every (guess, repetition) oracle is independent — so results are
// bit-for-bit identical for every worker count; only wall-clock time
// changes. Workers beyond the oracle-unit count are never started, and
// Close stops the ones that are. Can be changed later with SetParallelism.
func WithParallelism(workers int) Option {
	return func(c *config) { c.par = workers }
}

// WithHLLBackend switches the distinct-count sketches from the default
// bottom-k L0 to HyperLogLog. Both satisfy the paper's Theorem 2.12
// contract; HLL is smaller at equal error on large universes, the bottom-k
// sketch is exact below its capacity (see experiment E20).
func WithHLLBackend() Option {
	return func(c *config) { c.params.UseHLL = true }
}

// newConfig resolves opts over the defaults.
func newConfig(opts []Option) config {
	cfg := config{seed: 1, params: core.Practical()}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Estimator is the single-pass Max k-Cover estimator/reporter
// (Theorems 3.1 and 3.2 of the paper). It is not safe for concurrent use.
type Estimator struct {
	m, n, k int
	alpha   float64
	opts    []Option
	cfg     config // resolved options, captured for Encode
	inner   *core.Estimator
	edges   int // edges fed to inner; Edges adds the buffered ones
	// The column buffer every edge-struct entry fills: accepted edges
	// that flush has not yet fed to the batch path (transient, not
	// sketch state; every call that reads or moves state flushes first).
	sets, elems []uint32
}

// processRun is how many edges Process buffers before it feeds them to
// the batch path in one call: the kcoverd client's default batch.
const processRun = 8192

// NewEstimator builds an estimator for a stream over m sets and n elements
// with cover budget k and approximation target alpha ≥ 1. Space scales as
// Õ(m/α² + k): doubling alpha quarters the sketching state.
func NewEstimator(m, n, k int, alpha float64, opts ...Option) (*Estimator, error) {
	cfg := newConfig(opts)
	rng := rand.New(rand.NewSource(cfg.seed))
	inner, err := core.NewEstimator(m, n, k, alpha, cfg.params, core.NewOracleFactory(), rng)
	if err != nil {
		return nil, fmt.Errorf("streamcover: %w", err)
	}
	inner.SetParallelism(cfg.par) // 0 (the default) resolves to GOMAXPROCS
	return &Estimator{m: m, n: n, k: k, alpha: alpha, opts: opts, cfg: cfg, inner: inner}, nil
}

// Clone returns a deep copy of the estimator: a fresh same-seed estimator
// with this one's state merged in. The clone shares no mutable state with
// the original, so one goroutine may keep processing edges into the
// original while another encodes or finalizes the clone — this is how
// kcoverd checkpoints a session without stalling its ingest.
func (e *Estimator) Clone() (*Estimator, error) {
	e.flush()
	fresh, err := NewEstimator(e.m, e.n, e.k, e.alpha, e.opts...)
	if err != nil {
		return nil, err
	}
	if err := fresh.inner.Merge(e.inner); err != nil {
		return nil, fmt.Errorf("streamcover: clone: %w", err)
	}
	fresh.edges = e.edges
	return fresh, nil
}

// Process consumes one edge. Edges may arrive in any order and repeat;
// out-of-range IDs are rejected. A valid edge is buffered and reaches the
// sketches with the next processRun edges through the batched hot path,
// or earlier, when any call that reads or moves the state flushes the
// buffer; so Process is bit-for-bit identical to ProcessAll over the
// same edges. Like the batch entries, it runs on the batch engine's
// workers, which Close stops.
func (e *Estimator) Process(edge Edge) error {
	err := e.buffer([]Edge{edge})
	if len(e.sets) >= processRun {
		e.flush()
	}
	return err
}

// ProcessAll consumes a slice of edges through the batched hot path,
// stopping at the first invalid one (the valid prefix is processed, as
// a loop of Process calls would). The outcome is bit-for-bit identical
// to calling Process on every edge in order.
func (e *Estimator) ProcessAll(edges []Edge) error {
	err := e.buffer(edges)
	e.flush()
	return err
}

// ProcessBatch consumes one batch of edges through the batched hot path:
// every ID-keyed hash decision (layer routing, supersets, sampling bits,
// pseudo-elements) is computed once per distinct set or element in the
// batch instead of once per edge per sub-sketch, which is where most of
// the per-edge cost lives. The resulting state is bit-for-bit identical
// to calling Process on every edge in order. Unlike ProcessAll, the whole
// batch is validated up front and rejected atomically: on error no edge
// of the batch has been processed.
func (e *Estimator) ProcessBatch(edges []Edge) error {
	n := len(e.sets)
	err := e.buffer(edges)
	if err != nil {
		e.sets, e.elems = e.sets[:n], e.elems[:n]
	}
	e.flush()
	return err
}

// ProcessColumns consumes one batch of edges in struct-of-arrays form:
// sets[i] and elems[i] are edge i's endpoint IDs, and both columns must
// have equal length. It is the zero-transform counterpart of ProcessBatch
// — a decoded wire batch's ID columns feed the core prepass directly with
// no per-edge structs — with the same semantics: the whole batch is
// validated up front and rejected atomically, and the resulting state is
// bit-for-bit identical to calling Process on every (sets[i], elems[i])
// in order. The columns must stay unmodified for the duration of the call.
func (e *Estimator) ProcessColumns(sets, elems []uint32) error {
	e.flush()
	if len(sets) != len(elems) {
		return fmt.Errorf("streamcover: column length mismatch (%d sets, %d elems)", len(sets), len(elems))
	}
	for _, s := range sets {
		if int(s) >= e.m {
			return fmt.Errorf("streamcover: set id %d >= m=%d", s, e.m)
		}
	}
	for _, el := range elems {
		if int(el) >= e.n {
			return fmt.Errorf("streamcover: element id %d >= n=%d", el, e.n)
		}
	}
	e.inner.ProcessColumns(sets, elems)
	e.edges += len(sets)
	return nil
}

// buffer validates edges in order and appends them to the column
// buffer, stopping at the first invalid one, whose error it returns.
func (e *Estimator) buffer(edges []Edge) error {
	e.sets, e.elems = slices.Grow(e.sets, len(edges)), slices.Grow(e.elems, len(edges))
	for _, edge := range edges {
		if int(edge.Set) >= e.m {
			return fmt.Errorf("streamcover: set id %d >= m=%d", edge.Set, e.m)
		}
		if int(edge.Elem) >= e.n {
			return fmt.Errorf("streamcover: element id %d >= n=%d", edge.Elem, e.n)
		}
		e.sets, e.elems = append(e.sets, edge.Set), append(e.elems, edge.Elem)
	}
	return nil
}

// flush feeds the column buffer to the core batch path and empties it.
func (e *Estimator) flush() {
	if len(e.sets) == 0 {
		return
	}
	e.inner.ProcessColumns(e.sets, e.elems)
	e.edges += len(e.sets)
	e.sets, e.elems = e.sets[:0], e.elems[:0]
}

// SetParallelism changes the batch-engine worker count for all future
// ingest (≤ 0 selects GOMAXPROCS, 1 disables the engine). Results stay bit-for-bit identical at every setting. The
// workers start with the next batch; Close stops them. Not safe to call
// concurrently with Process* calls.
func (e *Estimator) SetParallelism(workers int) { e.inner.SetParallelism(workers) }

// Close flushes the edges Process buffered, then releases the
// estimator's batch working memory: the column buffer, the batch scratch,
// and the batch engine's helper goroutines with their scratch. None of it
// is sketch state, so Close changes no answer, SpaceWords or encoding, and
// the estimator remains fully usable — the next batch reallocates lazily.
// Long-lived owners call it when an estimator goes idle or is retired
// (kcoverd sessions do both). Not safe concurrently with Process* calls.
func (e *Estimator) Close() {
	e.flush()
	e.inner.Close()
	e.sets, e.elems = nil, nil
}

// Edges reports how many edges have been consumed, buffered ones included.
func (e *Estimator) Edges() int { return e.edges + len(e.sets) }

// Result finalizes the pass. It may be called repeatedly; further Process
// calls after Result are permitted but unusual.
func (e *Estimator) Result() Result {
	words := e.SpaceWords() // flushes the buffer before the state is read
	r := e.inner.Result()
	return Result{
		Coverage:   r.Value,
		Feasible:   r.Feasible,
		SetIDs:     r.SetIDs,
		SpaceWords: words,
	}
}

// SpaceWords is the number of 64-bit words of state the estimator
// retains, the figure Result reports, read without finalizing.
func (e *Estimator) SpaceWords() int {
	e.flush()
	return e.inner.SpaceWords()
}

// Merge folds another estimator into this one. Both must have been
// created with identical dimensions, options and seed; each may have
// consumed a different shard of the same logical edge stream (partitioned
// by edge, by set, or by time — duplicates across shards are harmless).
// After the merge, Result summarizes the union of the shards: this is how
// the estimator runs over partitioned or distributed streams.
func (e *Estimator) Merge(other *Estimator) error {
	if other == nil {
		return fmt.Errorf("streamcover: merge with nil estimator")
	}
	e.flush()
	other.flush()
	if err := e.inner.Merge(other.inner); err != nil {
		return fmt.Errorf("streamcover: %w", err)
	}
	e.edges += other.edges
	return nil
}

// SpaceBreakdown reports where the estimator's retained words live, keyed
// by component ("largecommon", "largeset", "smallset", "reduction") —
// useful for understanding which part of the Õ(m/α²) bound dominates at a
// given configuration.
func (e *Estimator) SpaceBreakdown() map[string]int {
	e.flush()
	return e.inner.SpaceBreakdown()
}

// Coverage computes the exact number of distinct elements covered by the
// chosen sets in a stored edge list — a convenience for validating
// reported solutions in examples and tests. It is NOT streaming: it scans
// the provided edges. Set IDs ≥ m and out-of-range edges are rejected,
// matching the validation style of GreedyCover (earlier versions silently
// skipped them, which masked caller bugs).
func Coverage(edges []Edge, m, n int, setIDs []uint32) (int, error) {
	chosen := make(map[uint32]bool, len(setIDs))
	for _, id := range setIDs {
		if int(id) >= m {
			return 0, fmt.Errorf("streamcover: set id %d >= m=%d", id, m)
		}
		chosen[id] = true
	}
	covered := setsystem.NewBitset(n)
	for _, e := range edges {
		if int(e.Set) >= m {
			return 0, fmt.Errorf("streamcover: set id %d >= m=%d", e.Set, m)
		}
		if int(e.Elem) >= n {
			return 0, fmt.Errorf("streamcover: element id %d >= n=%d", e.Elem, n)
		}
		if chosen[e.Set] {
			covered.Set(e.Elem)
		}
	}
	return covered.Count(), nil
}

// GreedyCover runs the classic offline greedy (the 1-1/e baseline the
// paper's Introduction starts from) on a stored edge list, returning the
// chosen set IDs and their exact coverage. It is NOT streaming; use it as
// ground truth on inputs small enough to hold in memory.
func GreedyCover(edges []Edge, m, n, k int) ([]uint32, int, error) {
	sets := make([][]uint32, m)
	for _, e := range edges {
		if int(e.Set) >= m {
			return nil, 0, fmt.Errorf("streamcover: set id %d >= m=%d", e.Set, m)
		}
		if int(e.Elem) >= n {
			return nil, 0, fmt.Errorf("streamcover: element id %d >= n=%d", e.Elem, n)
		}
		sets[e.Set] = append(sets[e.Set], e.Elem)
	}
	ss, err := setsystem.New(n, sets)
	if err != nil {
		return nil, 0, err
	}
	ids, cov := ss.LazyGreedy(k)
	out := make([]uint32, len(ids))
	for i, id := range ids {
		out[i] = uint32(id)
	}
	return out, cov, nil
}
