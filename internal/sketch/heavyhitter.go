package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// WeightedItem is a reported coordinate together with its approximate
// frequency.
type WeightedItem struct {
	ID     uint64
	Weight float64 // (1 ± 1/2)-approximate frequency a[ID]
}

// HeavyHitters finds the φ-heavy hitters of F2: coordinates j with
// a[j]² ≥ φ·F2(a). It instantiates Theorem 2.10 for insertion-only
// streams: a CountSketch provides (1±1/2)-accurate point estimates, and a
// candidate set of capacity O(1/φ) is maintained on arrival. A key that is
// not a candidate is admitted on arrival; when the set is full, every
// candidate is first re-estimated from the sketch and the weaker half is
// evicted. A coordinate that is heavy at the end of the stream therefore
// holds a slot: its estimate ranks it in the top half of every refresh
// after it is heavy, and its next occurrence re-admits it after any
// earlier eviction. Candidates carry no weights of their own: refreshes
// and Report re-estimate from the sketch, and checkpoints write ids only.
//
// The candidate set is an open-addressed linear-probing table rather
// than a Go map: the per-update lookup is the single hottest operation in
// the whole estimator, candidates are only ever deleted wholesale
// (refreshEvict rebuilds the table), and every consumer of the candidate
// SET orders it deterministically before acting — so slot layout is never
// observable and no tombstones are needed.
type HeavyHitters struct {
	phi   float64
	cs    *CountSketch
	cap   int
	total int64 // number of updates (weight 1 each)

	// Open-addressed candidate table, power-of-two size > 2·cap (a merge
	// may briefly hold up to 2·cap entries before trimming).
	ids  []uint64
	used []bool
	mask uint64
	n    int     // live candidates
	live []int32 // occupied slots, insertion order — refreshes iterate this
	// instead of scanning the whole table; rebuilt on every refresh/trim.
	// Iteration order feeds the refresh quickselect, whose survivor SET is
	// order-independent (the order is strict), so only the unobservable
	// slot layout depends on it.

	// The open batch (see BeginBatch): its keys and the caller's lent
	// memory, nil outside a batch. Neither is sketch state, so both are
	// excluded from SpaceWords, never serialized, and never merged.
	batchKeys []uint64
	mem       *BatchMemory
}

// BatchMemory is the working memory of the heavy-hitter batch path. It
// belongs to the goroutine that runs the batch, which lends it to one
// sketch at a time: HeavyHitters.BeginBatch borrows it and EndBatch gives
// it back, and Contributing.AddBatch lends it to each level in turn.
// Nothing in it outlives a batch — pending deltas are flushed by EndBatch
// and residency marks expire with the epoch — so one BatchMemory per
// worker replaces a copy per sketch. The zero value is ready to use; a
// BatchMemory must not be shared by concurrent goroutines.
type BatchMemory struct {
	pending []int64 // per batch key: deferred CountSketch delta
	touched []int32 // batch keys with pending != 0

	// Residency cache: key ki is a known candidate of the borrowing sketch
	// iff resident[ki] == epoch. epoch rises at every BeginBatch and every
	// refresh, whichever sketch runs it, so a mark recorded for one sketch
	// (or before an eviction) never reads as valid afterwards. It is
	// uint64 so it never wraps; zeroed entries never match because epoch
	// is ≥ 1 from the first batch on.
	epoch    uint64
	resident []uint64

	refresh []hhKV // refreshEvict's candidate list
	bits    []bool // Contributing: sampling bit per batch key
}

// scalarMemory is the refresh buffer of the scalar Add path, which runs
// without a caller's BatchMemory. One buffer serves every sketch; a
// refresh holds the lock for O(cap) work once per cap/2 admissions. A
// sync.Pool would not do: its per-P private entries are invisible to a
// goroutine that has moved to another P, which then reallocates and
// regrows the buffer.
var scalarMemory struct {
	sync.Mutex
	BatchMemory
}

type hhKV struct {
	id  uint64
	est int64
}

// kvLess is the deterministic total order of refresh/eviction: estimate
// descending, id ascending (ids are unique, so this is strict).
func kvLess(a, b hhKV) bool {
	if a.est != b.est {
		return a.est > b.est
	}
	return a.id < b.id
}

// hhKVs sorts by kvLess (concrete type: this sort runs on the ingest hot
// path and sort.Slice's reflection-based swaps were measurable).
type hhKVs []hhKV

func (s hhKVs) Len() int           { return len(s) }
func (s hhKVs) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
func (s hhKVs) Less(i, j int) bool { return kvLess(s[i], s[j]) }

// NewF2HeavyHitters builds a heavy-hitter sketch with threshold phi for a
// stream of unit-weight updates over an arbitrary uint64 key space.
func NewF2HeavyHitters(phi float64, rng *rand.Rand) *HeavyHitters {
	return newF2HeavyHitters(phi, 0, rng)
}

// newF2HeavyHitters builds a heavy-hitter sketch whose CountSketch is
// dense over [0, domain) (wide for domain 0).
func newF2HeavyHitters(phi float64, domain int, rng *rand.Rand) *HeavyHitters {
	if phi <= 0 || phi > 1 {
		panic(fmt.Sprintf("sketch: HeavyHitters phi %v out of (0,1]", phi))
	}
	width, capacity := hhDims(phi)
	hh := &HeavyHitters{
		phi: phi,
		cs:  newCountSketch(hhDepth, width, domain, rng),
		cap: capacity,
	}
	hh.initTable()
	return hh
}

// hhDepth is the CountSketch depth of every heavy-hitter sketch.
const hhDepth = 5

// hhDims returns the CountSketch width and the candidate capacity for
// threshold phi. Per-row error is √(F2/width); we need genuinely heavy
// coordinates (a[j] ≥ √(φF2) = √(φ·width)·σ) to clear the extreme-value
// noise ceiling σ·√(2·ln width) that Report gates on, which needs
// φ·width ≳ 2·ln width with slack. width = 24/φ gives √(φ·width) ≈ 4.9
// against a gate of ~√(2·ln width) ≈ 3.3–4.5 at practical widths.
func hhDims(phi float64) (width, capacity int) {
	return int(24.0/phi) + 1, int(4.0/phi) + 4
}

// initTable (re)allocates the candidate table for hh.cap.
func (hh *HeavyHitters) initTable() {
	size := 8
	for size <= 2*hh.cap {
		size *= 2
	}
	hh.ids = make([]uint64, size)
	hh.used = make([]bool, size)
	hh.live = make([]int32, 0, size)
	hh.mask = uint64(size - 1)
	hh.n = 0
}

// hhMix is the slot hash (Murmur3 finalizer-style avalanche).
func hhMix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// findSlot probes for id, returning its slot if present or the empty slot
// where it would be inserted.
func (hh *HeavyHitters) findSlot(id uint64) (int, bool) {
	i := hhMix(id) & hh.mask
	for hh.used[i] {
		if hh.ids[i] == id {
			return int(i), true
		}
		i = (i + 1) & hh.mask
	}
	return int(i), false
}

// insert fills an empty slot (from findSlot) with a new candidate.
func (hh *HeavyHitters) insert(slot int, id uint64) {
	hh.used[slot] = true
	hh.ids[slot] = id
	hh.live = append(hh.live, int32(slot))
	hh.n++
}

// Add feeds one unit-weight occurrence of key x: one CountSketch update,
// plus an admission if x is not a candidate. A full table is refreshed
// first (refreshEvict), through the shared scalarMemory since the scalar
// path has no lent BatchMemory.
func (hh *HeavyHitters) Add(x uint64) {
	hh.total++
	hh.cs.Add(x, 1)
	slot, ok := hh.findSlot(x)
	if ok {
		return
	}
	if hh.n >= hh.cap {
		scalarMemory.Lock()
		hh.refreshEvict(&scalarMemory.BatchMemory)
		scalarMemory.Unlock()
		slot, _ = hh.findSlot(x)
	}
	hh.insert(slot, x)
}

// refreshEvict re-estimates every candidate from the sketch and keeps the
// stronger half — the SET of survivors under the (estimate desc, id asc)
// total order, found by quickselect rather than a full sort; since the
// table is unordered the survivor set is all that matters. The O(cap)
// selection runs once per cap/2 admissions, so admission cost is
// amortized O(1). Evictions change who is resident, so it advances mem's
// residency epoch.
func (hh *HeavyHitters) refreshEvict(mem *BatchMemory) {
	all := mem.refresh[:0]
	for _, si := range hh.live {
		id := hh.ids[si]
		all = append(all, hhKV{id: id, est: hh.cs.Estimate(id)})
	}
	keep := hh.cap / 2
	selectTopKV(all, keep)
	mem.refresh = all
	clear(hh.used)
	hh.live = hh.live[:0]
	hh.n = 0
	for _, p := range all[:keep] {
		slot, _ := hh.findSlot(p.id)
		hh.insert(slot, p.id)
	}
	mem.epoch++
}

// selectTopKV partially orders a so that a[:k] holds the k strongest
// entries under kvLess (in unspecified internal order): a median-of-three
// Hoare quickselect with an insertion-sort tail. The order is strict (ids
// are unique), so the selected set is deterministic.
func selectTopKV(a []hhKV, k int) {
	if k <= 0 || k >= len(a) {
		return
	}
	lo, hi := 0, len(a)-1
	kk := k - 1 // last index that must land in the strong half
	for {
		if hi-lo < 16 {
			for i := lo + 1; i <= hi; i++ {
				kv := a[i]
				j := i
				for ; j > lo && kvLess(kv, a[j-1]); j-- {
					a[j] = a[j-1]
				}
				a[j] = kv
			}
			return
		}
		mid := lo + (hi-lo)/2
		if kvLess(a[mid], a[lo]) {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if kvLess(a[hi], a[lo]) {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if kvLess(a[hi], a[mid]) {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for kvLess(a[i], pivot) {
				i++
			}
			for kvLess(pivot, a[j]) {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// a[lo..j] are strong, a[i..hi] weak, anything between equals the
		// pivot (a single element under a strict order).
		if kk <= j {
			hi = j
		} else if kk >= i {
			lo = i
		} else {
			return
		}
	}
}

// BeginBatch enters deferred-update mode for a batch whose occurrences are
// indices into keys (one entry per distinct key), borrowing mem until
// EndBatch. While a batch is open, CountSketch deltas accumulate per
// distinct key in mem (the counters are plain sums, so flushing the total
// in one update per key is bit-identical), so a key reaches the sketch
// once per flush, not once per occurrence. Admissions read no counters;
// refreshes do, so deferred deltas are flushed before every refresh, and
// every refresh observes exactly the counters the per-occurrence path
// would have. The candidate table therefore evolves identically to the
// per-occurrence path. The keys slice is only read; it must stay valid
// until EndBatch.
func (hh *HeavyHitters) BeginBatch(keys []uint64, mem *BatchMemory) {
	hh.batchKeys, hh.mem = keys, mem
	// Invariant: pending is all zero between batches (flushPending
	// re-zeroes what it visits), so it needs no clearing.
	if cap(mem.pending) < len(keys) {
		mem.pending = make([]int64, len(keys))
		mem.resident = make([]uint64, len(keys))
	}
	mem.pending = mem.pending[:len(keys)]
	mem.resident = mem.resident[:len(keys)]
	mem.touched = mem.touched[:0]
	mem.epoch++ // invalidate residency recorded by the previous borrower
}

// AddBatched feeds one occurrence of batchKeys[ki]; identical to
// Add(batchKeys[ki]) given the flush discipline above. A key known to be
// resident only accrues its pending delta.
func (hh *HeavyHitters) AddBatched(ki int32) {
	hh.total++
	mem := hh.mem
	if mem.pending[ki] == 0 {
		mem.touched = append(mem.touched, ki)
	}
	mem.pending[ki]++
	if mem.resident[ki] == mem.epoch {
		return
	}
	x := hh.batchKeys[ki]
	slot, ok := hh.findSlot(x)
	if !ok {
		if hh.n >= hh.cap {
			hh.flushPending()
			hh.refreshEvict(mem)
			slot, _ = hh.findSlot(x)
		}
		hh.insert(slot, x)
	}
	mem.resident[ki] = mem.epoch
}

func (hh *HeavyHitters) flushPending() {
	mem := hh.mem
	for _, ki := range mem.touched {
		hh.cs.Add(hh.batchKeys[ki], mem.pending[ki])
		mem.pending[ki] = 0
	}
	mem.touched = mem.touched[:0]
}

// EndBatch flushes the deferred deltas, leaves batch mode and gives the
// borrowed BatchMemory back.
func (hh *HeavyHitters) EndBatch() {
	hh.flushPending()
	hh.batchKeys, hh.mem = nil, nil
}

// Total reports the number of updates fed.
func (hh *HeavyHitters) Total() int64 { return hh.total }

// F2Estimate exposes the underlying sketch's F2 estimate.
func (hh *HeavyHitters) F2Estimate() float64 { return hh.cs.F2Estimate() }

// Report returns every candidate whose estimated frequency squared clears
// the φ threshold against the estimated F2 AND whose estimate exceeds the
// sketch's extreme-value noise ceiling σ·√(2·ln width) (σ = per-bucket
// noise √(F2/width)). Without the ceiling, streams with many
// unit-frequency keys elect the largest noise fluctuation as a phantom
// heavy hitter — exactly the failure the set-disjointness hard instances
// provoke. Reported frequencies are (1 ± 1/2)-approximate as Theorem 2.10
// promises.
func (hh *HeavyHitters) Report() []WeightedItem {
	f2 := hh.cs.F2Estimate()
	thresh := hh.phi * f2
	noise := hh.noiseCeiling(f2)
	var out []WeightedItem
	for i, u := range hh.used {
		if !u {
			continue
		}
		id := hh.ids[i]
		est := float64(hh.cs.Estimate(id))
		if est > 0 && est*est >= thresh/4 && est >= noise {
			// /4 slack on the φ test: estimates may be off by 1/2 relative.
			out = append(out, WeightedItem{ID: id, Weight: est})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Estimate exposes the point estimate for a specific key.
func (hh *HeavyHitters) Estimate(x uint64) int64 { return hh.cs.Estimate(x) }

// noiseCeiling is the expected magnitude of the largest pure-noise point
// estimate for a sketch whose F2 estimate is f2: per-bucket standard
// deviation √(f2/width) inflated by the extreme-value factor √(2·ln width).
func (hh *HeavyHitters) noiseCeiling(f2 float64) float64 {
	w := float64(hh.cs.Width())
	if w < 2 {
		w = 2
	}
	if f2 < 1 {
		f2 = 1
	}
	return math.Sqrt(f2/w) * math.Sqrt(2*math.Log(w))
}

// SpaceWords counts the CountSketch plus two words per candidate slot: an
// id and the weight Theorem 2.10's sketch keeps with it (this one
// re-estimates weights instead, but keeps the paper's accounting).
func (hh *HeavyHitters) SpaceWords() int {
	return hh.cs.SpaceWords() + 2*hh.cap + 2
}
