package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
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
// A candidate set is its id list, in no particular order, plus a
// membership index: a bitmap over the dense domain [0, q) the sketch was
// built for, and a map for keys at or above it (all keys of a sketch
// built without a domain). Every consumer of the set orders it
// deterministically before acting, so the list order is never
// observable.
type HeavyHitters struct {
	phi   float64
	cs    *CountSketch
	cap   int
	total int64 // number of updates (weight 1 each)

	ids    []uint64            // the candidates, at most cap between calls; a merge may briefly hold 2·cap
	q      uint64              // the bitmap's domain
	bitmap []uint64            // bit x set iff x < q is a candidate; nil until the first
	wide   map[uint64]struct{} // the candidates ≥ q; nil until the first
}

// BatchMemory is the working memory of the heavy-hitter batch path. It
// belongs to the goroutine that runs the batch, which hands it to one
// sketch's batch call at a time: Contributing.AddBatch passes it to each
// level in turn. Nothing in it outlives a call — pending deltas are
// flushed before the call returns — so one BatchMemory per worker
// replaces a copy per sketch. The zero value is ready to use; a
// BatchMemory must not be shared by concurrent goroutines.
type BatchMemory struct {
	pending []int64 // per batch key: deferred CountSketch delta, all zero between calls
	touched []int32 // batch keys with pending != 0, plus the slot replay writes past them
	refresh []hhKV  // a refresh's candidate list (keepTop)
	bits    []uint8 // Contributing: sampling bit, 0 or 1, per batch key
}

// selBlock is how many of a run's occurrences a sampled level compacts at
// a time: a fixed block on the stack, whatever the batch size.
const selBlock = 512

// Run is one batch of unit-weight occurrences over a list of distinct
// keys, held both ways the batch path reads it: the occurrences in
// arrival order, and per key its number of occurrences, with the keys
// listed in first-occurrence order. Reset and Add build it; it is built
// once per batch and read by every sketch the batch feeds. The zero
// value is ready to use.
type Run struct {
	occ   []int32 // per occurrence, in arrival order: an index into the keys
	count []int32 // per key: its entries in occ; zero for keys not in first
	first []int32 // the keys occ names, once each, in first-occurrence order
}

// Reset empties r for a batch over nkeys keys.
func (r *Run) Reset(nkeys int) {
	// Invariant: count is zero outside first, so re-zeroing first clears
	// every count the previous batch left.
	for _, ki := range r.first {
		r.count[ki] = 0
	}
	r.occ, r.first = r.occ[:0], r.first[:0]
	if cap(r.count) < nkeys {
		r.count = make([]int32, nkeys)
	}
	r.count = r.count[:nkeys]
}

// Add appends one occurrence of key index ki.
func (r *Run) Add(ki int32) {
	if r.count[ki] == 0 {
		r.first = append(r.first, ki)
	}
	r.count[ki]++
	r.occ = append(r.occ, ki)
}

// Distinct returns the key indices the run holds, once each, in
// first-occurrence order.
func (r *Run) Distinct() []int32 { return r.first }

// Count returns the number of occurrences of key index ki.
func (r *Run) Count(ki int32) int { return int(r.count[ki]) }

// Spare hands the storage of the run's occurrences, n of them at most, to
// a caller that has fed the run to every sketch it feeds, as scratch.
// Distinct and Count still answer, but the run must not be fed again
// before the next Reset.
func (r *Run) Spare(n int) []int32 {
	s := r.occ[:n]
	r.occ = r.occ[:0]
	return s
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
	return &HeavyHitters{
		phi: phi,
		cs:  newCountSketch(hhDepth, width, domain, rng),
		cap: capacity,
		q:   uint64(domain),
	}
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

// has reports whether x is a candidate.
func (hh *HeavyHitters) has(x uint64) bool {
	if x < hh.q {
		w := x >> 6
		return w < uint64(len(hh.bitmap)) && hh.bitmap[w]&(1<<(x&63)) != 0
	}
	_, ok := hh.wide[x]
	return ok
}

// admit adds x, which is not a candidate, to the set.
func (hh *HeavyHitters) admit(x uint64) {
	hh.ids = append(hh.ids, x)
	if x < hh.q {
		if hh.bitmap == nil {
			hh.bitmap = make([]uint64, (hh.q+63)>>6)
		}
		hh.bitmap[x>>6] |= 1 << (x & 63)
		return
	}
	if hh.wide == nil {
		hh.wide = make(map[uint64]struct{})
	}
	hh.wide[x] = struct{}{}
}

// Add feeds one unit-weight occurrence of key x: one CountSketch update,
// plus an admission if x is not a candidate. A full set is refreshed
// first (keepTop keeps the stronger half) into a buffer of its own: Add
// is Theorem 2.10's per-item interface, which the standalone sketch
// experiments and the tests' per-edge reference call; ingest feeds a
// level through addBatch and its worker's BatchMemory.
func (hh *HeavyHitters) Add(x uint64) {
	hh.total++
	hh.cs.Add(x, 1)
	if hh.has(x) {
		return
	}
	if len(hh.ids) >= hh.cap {
		hh.keepTop(hh.cap/2, nil)
	}
	hh.admit(x)
}

// keepTop re-estimates every candidate from the sketch and keeps the
// keep strongest — the SET of survivors under the (estimate desc, id asc)
// total order, found by quickselect rather than a full sort; since the
// set is unordered the survivor set is all that matters. A built dense
// sketch's candidates are estimated straight from its layout, as
// Estimate would but without a call per candidate. buf is scratch for
// the estimates, returned grown. A refresh keeps cap/2, so its O(cap)
// selection runs once per cap/2 admissions and admission cost is
// amortized O(1).
func (hh *HeavyHitters) keepTop(keep int, buf []hhKV) []hhKV {
	all := buf[:0]
	cs := hh.cs
	for _, id := range hh.ids {
		var est int64
		if id < cs.domain && cs.lay != nil {
			c, t := &cs.lay.cell[id], cs.table
			est = median5(
				signed(c[0], t[c[0]>>1]),
				signed(c[1], t[c[1]>>1]),
				signed(c[2], t[c[2]>>1]),
				signed(c[3], t[c[3]>>1]),
				signed(c[4], t[c[4]>>1]),
			)
		} else {
			est = cs.Estimate(id)
		}
		all = append(all, hhKV{id: id, est: est})
	}
	selectTopKV(all, keep)
	for _, p := range all[keep:] {
		if p.id < hh.q {
			hh.bitmap[p.id>>6] &^= 1 << (p.id & 63)
		}
	}
	// Clearing and refilling the map, not deleting from it, keeps a
	// wide sketch's refreshes allocation-free.
	clear(hh.wide)
	hh.ids = hh.ids[:0]
	for _, p := range all[:keep] {
		hh.ids = append(hh.ids, p.id)
		if p.id >= hh.q {
			hh.wide[p.id] = struct{}{}
		}
	}
	return all
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

// addBatch feeds the occurrences of run whose sampling bit is 1 (every
// occurrence for nil bits); keys are the batch's distinct keys, which run
// and bits index. It is bit-for-bit equivalent to calling Add per
// occurrence, in one of two ways chosen from the batch's own keys:
//
//   - When the batch's new keys fit the free candidate slots, no refresh
//     can fall inside it: each key's count lands in one counter update,
//     and the new keys are admitted in first-occurrence order, which is
//     the order the per-occurrence path admits them in.
//   - Otherwise replay runs the occurrences in arrival order, after a
//     level with sampling bits has compacted its own occurrences out of
//     the run.
func (hh *HeavyHitters) addBatch(keys []uint64, run *Run, bits []uint8, mem *BatchMemory) {
	if hh.fits(keys, run.first, bits) {
		for _, ki := range run.first {
			if bits != nil && bits[ki] == 0 {
				continue
			}
			x, n := keys[ki], int64(run.count[ki])
			hh.total += n
			hh.cs.Add(x, n)
			if !hh.has(x) {
				hh.admit(x)
			}
		}
		return
	}
	hh.beginReplay(len(keys), len(run.first), mem)
	if bits == nil {
		hh.replay(keys, run.occ, mem)
	} else {
		// Compact a block at a time, on the stack: write every index,
		// advance by its bit.
		var sel [selBlock]int32
		for occ := run.occ; len(occ) > 0; {
			block := occ[:min(len(occ), len(sel))]
			occ = occ[len(block):]
			n := 0
			for _, ki := range block {
				sel[n] = ki
				n += int(bits[ki])
			}
			hh.replay(keys, sel[:n], mem)
		}
	}
	hh.cs.flush(keys, mem.touched, mem.pending)
	mem.touched = mem.touched[:0]
}

// beginReplay readies the sketch and the worker's memory for replay: the
// candidate list gets its cap+1 slots at the sketch's first replay, a
// dense sketch its bitmap, and the touched list one slot more than the
// batch's distinct keys.
func (hh *HeavyHitters) beginReplay(nkeys, distinct int, mem *BatchMemory) {
	if cap(hh.ids) <= hh.cap {
		hh.ids = append(make([]uint64, 0, hh.cap+1), hh.ids...)
	}
	if hh.bitmap == nil && hh.q > 0 {
		hh.bitmap = make([]uint64, (hh.q+63)>>6)
	}
	if cap(mem.pending) < nkeys {
		mem.pending = make([]int64, nkeys)
	}
	mem.pending = mem.pending[:nkeys]
	if cap(mem.touched) <= distinct {
		mem.touched = make([]int32, 0, distinct+1)
	}
}

// replay feeds occ, occurrences of keys, in arrival order, with one
// data-dependent branch: into a refresh, taken when the set is full and
// the key is not a candidate. Every other step writes unconditionally
// and advances by a bit:
//
//   - Counter deltas are deferred per key in mem.pending (the counters
//     are plain sums, so one update per key is bit-identical), and each
//     occurrence writes its key index to mem.touched, advancing past it
//     only on the key's first touch since the last flush.
//   - Each occurrence writes its key one slot past the live candidates
//     and advances past it by the miss bit. An in-domain key reads the
//     bit from the bitmap and sets it after any refresh; a key at or
//     above the domain (every key of a sketch built without one) asks
//     the map instead, which the replay fills on a miss. Which of the
//     two a key takes follows the sketch's form, not the data.
//
// The deltas are flushed before every refresh, so each refresh observes
// exactly the counters the per-occurrence path would have, and the
// candidate set evolves identically. Deltas still pending when replay
// returns are the caller's to flush.
func (hh *HeavyHitters) replay(keys []uint64, occ []int32, mem *BatchMemory) {
	pending, touched := mem.pending, mem.touched[:cap(mem.touched)]
	ids, bitmap, q := hh.ids[:hh.cap+1], hh.bitmap, hh.q
	n, nt := len(hh.ids), len(mem.touched)
	for _, ki := range occ {
		touched[nt] = ki
		nt += int(uint64(pending[ki]-1) >> 63) // 1 iff pending[ki] == 0
		pending[ki]++
		x := keys[ki]
		ids[n] = x
		var miss int
		if x < q {
			miss = int(^bitmap[x>>6] >> (x & 63) & 1)
		} else if _, ok := hh.wide[x]; !ok {
			miss = 1
		}
		if n+miss > hh.cap {
			hh.ids = ids[:n]
			hh.cs.flush(keys, touched[:nt], pending)
			nt = 0
			mem.refresh = hh.keepTop(hh.cap/2, mem.refresh)
			n = len(hh.ids)
			ids[n] = x
		}
		if x < q {
			bitmap[x>>6] |= 1 << (x & 63)
		} else if miss != 0 {
			if hh.wide == nil {
				hh.wide = make(map[uint64]struct{})
			}
			hh.wide[x] = struct{}{}
		}
		n += miss
	}
	hh.ids, mem.touched = ids[:n], touched[:nt]
	hh.total += int64(len(occ))
}

// fits reports whether the keys of first whose bit is 1 (all of them
// for nil bits) bring no more new candidates than the set has free
// slots, so that admitting them all triggers no refresh.
func (hh *HeavyHitters) fits(keys []uint64, first []int32, bits []uint8) bool {
	free := hh.cap - len(hh.ids)
	if len(first) <= free {
		return true
	}
	for _, ki := range first {
		if (bits == nil || bits[ki] != 0) && !hh.has(keys[ki]) {
			if free--; free < 0 {
				return false
			}
		}
	}
	return true
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
	for _, id := range hh.ids {
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
