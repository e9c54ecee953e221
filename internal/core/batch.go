package core

import (
	"slices"

	"streamcover/internal/hash"
	"streamcover/internal/sketch"
	"streamcover/internal/stream"
)

// Batched ingest: the per-edge cost of the estimator is dominated by
// polynomial hashes whose input is ONLY the edge's set ID or ONLY its
// element ID (LargeCommon's layer routing, LargeSet's element sampling
// and superset partition, SmallSet's three samplers, and the universe
// reduction itself). Within one batch those inputs repeat — a batch
// touches far fewer distinct sets than edges, and a small reduced
// universe [z] collapses the element column to at most z values — so the
// batch path computes every ID-keyed hash decision once per distinct ID
// per batch and replays the edges in arrival order against the memoized
// values.
//
// ProcessColumns, the one ingest entry point, is bit-for-bit identical to
// the paper's per-edge chain (Figures 1–5), which the package's tests keep
// as the reference (reference_test.go): the memo tables cache
// pure functions of the IDs (identical field reductions, identical
// thresholds), every stateful structure ends in the state the per-edge
// updates leave (the contributing batteries and the stored pairs take
// the same updates in the same order; a distinct counter takes the same
// keys and number of adds, all its state depends on), and subroutines
// are mutually independent so running them batch-at-a-time instead of
// edge-interleaved leaves their post-pass state unchanged.
//
// Space accounting: BatchScratch is transient working memory, not sketch
// state. It holds no information that survives the current batch (every
// table is rebuilt from the batch's own edges), so it is deliberately
// EXCLUDED from every SpaceWords() sum — the paper's Õ(m/α² + k) bound
// governs what the algorithm retains across the stream, and counting
// per-batch scratch would conflate the streaming space with the caller's
// choice of batch size. See internal/sketch for the contract.

// maxBatchChunk bounds the number of edges indexed at once, which bounds
// the scratch tables to O(chunk) memory regardless of caller batch size.
const maxBatchChunk = 1 << 15

// Prepass is the chunk-wide shared prepass: the deduped set and element
// ID columns of the chunk being processed. It is computed once per chunk
// (IndexColumns) and then only READ — every (guess, repetition) oracle
// unit consumes the same columns, which is what lets the parallel batch
// engine hand one Prepass to every worker while each worker keeps its own
// mutable BatchScratch.
type Prepass struct {
	sets  hash.Interner // distinct set IDs + per-edge positions
	elems hash.Interner // distinct element IDs + per-edge positions

	// setIDs is the chunk's raw set-ID column in arrival order — the
	// per-edge view processChunkUnit replays when rebuilding each unit's
	// reduced edges. It aliases the caller's column (for wire batches
	// that's the decoder's column buffer: zero transform).
	setIDs []uint32
}

// IndexColumns dedups both ID columns of the chunk: the interners consume
// the columns directly and the set column is aliased, not copied. The
// caller must keep both columns unmodified until the next IndexColumns
// call. After IndexColumns returns the Prepass is immutable until the
// next call; concurrent readers are safe provided they synchronize with
// the indexing goroutine (the engine publishes the Prepass through a
// channel send).
func (p *Prepass) IndexColumns(sets, elems []uint32) {
	p.sets.Reset()
	p.elems.Reset()
	for _, s := range sets {
		p.sets.Add(s)
	}
	for _, e := range elems {
		p.elems.Add(e)
	}
	p.setIDs = sets
}

// BatchScratch is the reusable per-batch working memory of the batched
// ingest path: a reference to the chunk's (possibly shared) prepass plus
// value buffers for memoized hash decisions. A scratch may be reused
// across batches (IndexColumns resets it) but never shared between
// concurrent goroutines; only the Prepass it points at may be shared,
// read-only. An estimator's own scratch and each engine helper's live
// until Estimator.Close, which drops them all.
type BatchScratch struct {
	pre *Prepass // chunk prepass: owned by the sequential path, shared under the engine

	// Element view consumed by Oracle.ProcessBatch: elemKeys holds the
	// distinct hash-input keys for the element column of the edges being
	// processed (the raw element IDs, or the deduped reduced
	// pseudo-elements when the estimator drives the batch), and
	// elemRef[j] indexes edge j's key within it. Both may alias the
	// interner's Keys/Pos; Oracle.ProcessBatch only reads them.
	elemKeys []uint64
	elemRef  []int32

	// Estimator-owned buffers for the universe-reduction step.
	rawVals  []uint64      // per distinct raw element: reduced pseudo-element
	redKeys  []uint64      // deduped reduced pseudo-elements
	redPos   []int32       // per distinct raw element: index into redKeys; the oracle's element tags after
	dense    []int32       // size-z dense dedup table (index or -1)
	redEdges []stream.Edge // reduced-edge replay buffer
	refBuf   []int32       // estimator-side elemRef storage

	// Subroutine value buffers (memoized hash decisions per distinct key).
	// LargeCommon and LargeSet's fallback, which feed distinct counters,
	// also use hv for the counters' hashes and hv2 for their key lists.
	hv   []uint64
	hv2  []uint64
	bits []bool

	// LargeCommon's per-layer counters. The distinct-counter grouping
	// borrows the rest: the per-element tags redPos (elemTags), the
	// fallback's group ends ssDense, and its groups the run's occurrence
	// storage (Run.Spare).
	counts []int32

	// LargeSet superset-dedup buffers: distinct superset IDs of the
	// chunk's distinct sets plus the sampled edges' superset run,
	// feeding the contributing batteries' batch path.
	ssDense  []int32                  // size-q dense dedup table (index or -1); the fallback's group ends after
	ssKeys   []uint64                 // distinct superset IDs, first-appearance order
	ssPos    []int32                  // per distinct set: index into ssKeys
	run      sketch.Run               // the sampled edges' supersets, indices into ssKeys
	fallback []sketch.DistinctCounter // per run superset: its fallback counter, or nil

	// Heavy-hitter batch memory, passed to every contributing battery
	// this worker feeds.
	hh sketch.BatchMemory
}

// NewBatchScratch returns an empty scratch owning its prepass; buffers
// grow on first use.
func NewBatchScratch() *BatchScratch { return &BatchScratch{pre: new(Prepass)} }

// IndexColumns dedups both ID columns of the batch into the scratch's own
// prepass and exposes the identity element view (elemKeys = the distinct
// raw element IDs), which is what Oracle.ProcessBatch expects when it is
// driven directly rather than through the estimator's universe reduction.
func (sc *BatchScratch) IndexColumns(sets, elems []uint32) {
	sc.pre.IndexColumns(sets, elems)
	sc.elemKeys = sc.pre.elems.Keys
	sc.elemRef = sc.pre.elems.Pos
}

// ProcessBatch fans the batch out to all three subroutines, whose own
// ProcessBatch methods take edges and sc on the terms CoverageOracle
// states. Each subroutine consumes the whole batch before the next
// starts; because the subroutines share no state, this is
// indistinguishable from the edge-interleaved sequential fan-out.
func (o *Oracle) ProcessBatch(edges []stream.Edge, sc *BatchScratch) {
	o.lc.ProcessBatch(edges, sc)
	o.ls.ProcessBatch(edges, sc)
	o.ss.ProcessBatch(edges, sc)
}

// ProcessBatch evaluates the shared set hash once per distinct set and
// turns it into the set's first sampling layer: the first whose threshold
// the hash is below, len(layers) for none. The layers are nested, so an
// edge reaches every layer from its set's first one up, and layer i takes
// every pseudo-element whose first layer, the least over its edges, is at
// most i. A counting sort orders the distinct pseudo-elements by first
// layer, so layer i's keys are a prefix of that order: its counter takes
// them in one AddKeys together with the number of edges whose first layer
// is at most i, which leaves the state one Add per such edge leaves.
func (lc *LargeCommon) ProcessBatch(edges []stream.Edge, sc *BatchScratch) {
	nl := int32(len(lc.layers))
	sc.hv = lc.h.EvalBatch(sc.pre.sets.Keys, sc.hv)
	for i, v := range sc.hv {
		f := int32(0)
		for f < nl && v >= lc.layers[f].thresh {
			f++
		}
		sc.hv[i] = uint64(f)
	}
	first := sc.elemTags(nl)
	// counts[f] is the number of edges, then counts[nl+1+f] the number of
	// distinct pseudo-elements, whose first layer is f.
	if cap(sc.counts) < 2*int(nl+1) {
		sc.counts = make([]int32, 2*(nl+1))
	}
	counts := sc.counts[:2*(nl+1)]
	clear(counts)
	adds, byLayer := counts[:nl+1], counts[nl+1:]
	setPos, elemRef := sc.pre.sets.Pos, sc.elemRef
	for j := range edges {
		f := int32(sc.hv[setPos[j]])
		e := elemRef[j]
		first[e] = min(first[e], f)
		adds[f]++
	}
	// A counting sort by first layer. Only the elements some layer takes
	// are listed; the rest, first layer nl, all write to the one slot
	// past them without advancing.
	for _, f := range first {
		byLayer[f]++
	}
	var off int32
	for f, c := range byLayer {
		byLayer[f] = off
		off += c
	}
	reached := int(byLayer[nl])
	keys := slices.Grow(sc.hv2[:0], reached+1)[:reached+1]
	for e, f := range first {
		keys[byLayer[f]] = sc.elemKeys[e]
		byLayer[f] += int32(uint32(f-nl) >> 31) // 1 iff f < nl
	}
	sc.hv2 = keys
	n := 0
	for i := range lc.layers {
		// byLayer[i] is now the end of layer i's bucket.
		if n += int(adds[i]); n > 0 {
			sc.hv = lc.layers[i].de.AddKeys(keys[:byLayer[i]], n, sc.hv)
		}
	}
}

// ProcessBatch memoizes, per repetition, the element-sampling bit per
// distinct element and the superset per distinct set. The per-edge
// reference computes a superset only for sampled edges while the batch
// path computes one per distinct set; the values are pure functions of
// the set ID, so the updates are identical. The supersets of the sampled edges
// are deduped once more (they live in [0, q), far fewer values than sets)
// into one run — occurrences in arrival order plus a count per distinct
// superset — that both batteries and all their levels read, so the
// batteries' per-occurrence hashing collapses to one evaluation per
// distinct superset per chunk. The fallback then groups the sampled edges
// by superset, a counting sort over the run's per-key counts into the
// run's own occurrence storage, which the batteries are done with, and
// each sampled superset's counter takes its group's distinct elements in
// one AddKeys with the group's size as the number of adds. The batteries
// and the fallback are independent structures, so updating them
// battery-major instead of edge-major changes no state.
func (ls *LargeSet) ProcessBatch(edges []stream.Edge, sc *BatchScratch) {
	setPos, elemRef := sc.pre.sets.Pos, sc.elemRef
	for i := range ls.reps {
		rep := &ls.reps[i]
		sc.bits = rep.elemSamp.BernoulliBatch(sc.elemKeys, ls.rho, sc.bits)
		sc.hv = rep.part.h.RangeBatch(sc.pre.sets.Keys, uint64(rep.part.q), sc.hv)
		ssPos := sc.dedupSupersets(rep.part.q)
		run := &sc.run
		run.Reset(len(sc.ssKeys))
		for j := range edges {
			if sc.bits[elemRef[j]] {
				run.Add(ssPos[setPos[j]])
			}
		}
		rep.cntrSmall.AddBatch(sc.ssKeys, run, &sc.hh)
		rep.cntrLarge.AddBatch(sc.ssKeys, run, &sc.hh)
		if len(rep.sampled) == 0 {
			continue
		}
		if cap(sc.fallback) < len(sc.ssKeys) {
			sc.fallback = make([]sketch.DistinctCounter, len(sc.ssKeys))
		}
		fallback := sc.fallback[:len(sc.ssKeys)]
		// end[ki] starts as the offset of superset ki's group and ends
		// one past it. It borrows the dedup table, which dedupSupersets
		// rebuilds before its next read.
		end := sc.ssDense[:len(sc.ssKeys)]
		var total int32
		for _, ki := range run.Distinct() {
			de := rep.sampled[sc.ssKeys[ki]]
			fallback[ki] = de
			if de != nil {
				end[ki] = total
				total += int32(run.Count(ki))
			}
		}
		if total == 0 {
			continue
		}
		group := run.Spare(int(total))
		for j := range edges {
			if e := elemRef[j]; sc.bits[e] {
				if ki := ssPos[setPos[j]]; fallback[ki] != nil {
					group[end[ki]] = e
					end[ki]++
				}
			}
		}
		// Repeats within a group are dropped by stamping each element
		// with the group's superset key index.
		stamp := sc.elemTags(-1)
		for _, ki := range run.Distinct() {
			de := fallback[ki]
			if de == nil {
				continue
			}
			n := run.Count(ki)
			keys := sc.hv2[:0]
			for _, e := range group[end[ki]-int32(n) : end[ki]] {
				if stamp[e] != ki {
					stamp[e] = ki
					keys = append(keys, sc.elemKeys[e])
				}
			}
			sc.hv2 = keys
			sc.hv = de.AddKeys(keys, n, sc.hv)
		}
	}
}

// elemTags returns a tag per distinct element of the element view, each
// set to v. The tags live in redPos, which the universe reduction is done
// with before the oracle runs.
func (sc *BatchScratch) elemTags(v int32) []int32 {
	n := len(sc.elemKeys)
	if cap(sc.redPos) < n {
		sc.redPos = make([]int32, n)
	}
	tags := sc.redPos[:n]
	for i := range tags {
		tags[i] = v
	}
	return tags
}

// dedupSupersets collapses sc.hv (superset IDs in [0, q), one per distinct
// set) to its distinct values via a dense table, filling sc.ssKeys with
// the distinct IDs in first-appearance order and returning the
// per-distinct-set position array.
func (sc *BatchScratch) dedupSupersets(q int) []int32 {
	if cap(sc.ssDense) < q {
		sc.ssDense = make([]int32, q)
	}
	dense := sc.ssDense[:q]
	for i := range dense {
		dense[i] = -1
	}
	if cap(sc.ssPos) < len(sc.hv) {
		sc.ssPos = make([]int32, len(sc.hv))
	}
	sc.ssKeys = sc.ssKeys[:0]
	pos := sc.ssPos[:len(sc.hv)]
	for i, v := range sc.hv {
		d := dense[v]
		if d < 0 {
			d = int32(len(sc.ssKeys))
			dense[v] = d
			sc.ssKeys = append(sc.ssKeys, v)
		}
		pos[i] = d
	}
	return pos
}

// ProcessBatch memoizes the set-membership bit per distinct set and the
// two element-sample hashes per distinct element, then replays the edges
// in arrival order through the per-edge layer logic (store). Dead layers
// can only accumulate (a layer may die mid-batch), so the replay
// re-checks liveness after every stored edge.
func (ss *SmallSet) ProcessBatch(edges []stream.Edge, sc *BatchScratch) {
	if ss.live == 0 {
		return
	}
	sc.bits = ss.setSamp.BernoulliBatch(sc.pre.sets.Keys, ss.mRate, sc.bits)
	sc.hv = ss.pickSamp.EvalBatch(sc.elemKeys, sc.hv)
	sc.hv2 = ss.estSamp.EvalBatch(sc.elemKeys, sc.hv2)
	setPos, elemRef := sc.pre.sets.Pos, sc.elemRef
	for j := range edges {
		if !sc.bits[setPos[j]] {
			continue
		}
		ss.store(edges[j], sc.hv[elemRef[j]], sc.hv2[elemRef[j]])
		if ss.live == 0 {
			return
		}
	}
}

// ProcessColumns consumes a batch in struct-of-arrays form — sets[i] and
// elems[i] are edge i's endpoint IDs — through the batched hot path,
// chunking internally so scratch memory stays O(maxBatchChunk) regardless
// of batch size. The columns a wire decoder filled feed the prepass
// interners directly, with no edge structs in between. It leaves the
// state the per-edge reference leaves after every edge in order, for any
// split of the stream into batches, and is not safe for concurrent use.
// Both slices must stay unmodified for the duration of the call.
func (est *Estimator) ProcessColumns(sets, elems []uint32) {
	if len(sets) != len(elems) {
		panic("core: ProcessColumns with mismatched column lengths")
	}
	if est.trivial || len(sets) == 0 {
		return
	}
	if est.scratch == nil {
		est.scratch = NewBatchScratch()
	}
	for start := 0; start < len(sets); start += maxBatchChunk {
		end := start + maxBatchChunk
		if end > len(sets) {
			end = len(sets)
		}
		est.scratch.IndexColumns(sets[start:end], elems[start:end])
		est.processIndexedChunk(end-start, est.scratch)
	}
}

// processIndexedChunk feeds one indexed chunk (sc holds the shared
// prepass, computed exactly once) of count edges to every (guess, rep)
// unit — sequentially, or fanned across the persistent engine when
// parallelism is enabled and the grid has more than one unit.
func (est *Estimator) processIndexedChunk(count int, sc *BatchScratch) {
	units := est.units()
	if est.par > 1 && len(units) > 1 {
		if est.eng == nil {
			helpers := est.par
			if helpers > len(units) {
				helpers = len(units)
			}
			est.eng = newEngine(helpers - 1) // caller is always a worker
		}
		est.eng.run(est, count, sc)
		return
	}
	for _, u := range units {
		est.processChunkUnit(count, sc, u.g, u.rep)
	}
}

// processChunkUnit applies one repetition's universe reduction to the
// indexed chunk of count edges — one Range per distinct element instead
// of one per edge — and hands the reduced edges to the oracle's batch
// path. The prepass position arrays and its set-ID column carry
// everything needed to rebuild each reduced edge. When z is smaller than
// the chunk's distinct-element count the reduced values are deduped
// again (dense table over [z]), so downstream element-keyed hashes run
// once per distinct PSEUDO-element: the small guesses at the bottom of
// the ladder collapse to at most z evaluations per hash per chunk.
func (est *Estimator) processChunkUnit(count int, sc *BatchScratch, g *zGuess, rep *zRep) {
	z := uint64(g.z)
	sc.rawVals = rep.h.RangeBatch(sc.pre.elems.Keys, z, sc.rawVals)

	keys, pos := sc.rawVals, []int32(nil) // identity: key i is distinct raw elem i
	if g.z < len(sc.pre.elems.Keys) {
		keys, pos = sc.dedupReduced(g.z)
	}

	if cap(sc.redEdges) < count {
		sc.redEdges = make([]stream.Edge, count)
		sc.refBuf = make([]int32, count)
	}
	red, ref := sc.redEdges[:count], sc.refBuf[:count]
	setIDs := sc.pre.setIDs
	for j := range red {
		oi := sc.pre.elems.Pos[j]
		red[j] = stream.Edge{Set: setIDs[j], Elem: uint32(sc.rawVals[oi])}
		if pos != nil {
			ref[j] = pos[oi]
		} else {
			ref[j] = oi
		}
	}
	sc.elemKeys, sc.elemRef = keys, ref

	rep.oracle.ProcessBatch(red, sc)
}

// dedupReduced collapses rawVals (reduced pseudo-elements in [0, z)) to
// their distinct values via a dense table, returning the distinct keys in
// first-appearance order and the per-raw-element position array.
func (sc *BatchScratch) dedupReduced(z int) ([]uint64, []int32) {
	if cap(sc.dense) < z {
		sc.dense = make([]int32, z)
	}
	dense := sc.dense[:z]
	for i := range dense {
		dense[i] = -1
	}
	if cap(sc.redPos) < len(sc.rawVals) {
		sc.redPos = make([]int32, len(sc.rawVals))
	}
	sc.redKeys = sc.redKeys[:0]
	pos := sc.redPos[:len(sc.rawVals)]
	for i, v := range sc.rawVals {
		d := dense[v]
		if d < 0 {
			d = int32(len(sc.redKeys))
			dense[v] = d
			sc.redKeys = append(sc.redKeys, v)
		}
		pos[i] = d
	}
	return sc.redKeys, pos
}
