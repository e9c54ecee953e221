package sketch

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// batchStream builds a skewed occurrence stream over a small key space —
// the shape the LargeSet subroutine feeds these sketches (superset IDs
// with heavy repetition) — returning the distinct keys and the occurrence
// sequence as indices into them.
func batchStream(nOcc int, universe int, rng *rand.Rand) (keys []uint64, occ []int32, raw []uint64) {
	idx := make(map[uint64]int32)
	for i := 0; i < nOcc; i++ {
		var x uint64
		if rng.Intn(4) == 0 {
			x = uint64(rng.Intn(universe)) // light tail
		} else {
			x = uint64(rng.Intn(universe / 8)) // heavy head
		}
		ki, ok := idx[x]
		if !ok {
			ki = int32(len(keys))
			idx[x] = ki
			keys = append(keys, x)
		}
		occ = append(occ, ki)
		raw = append(raw, x)
	}
	return
}

// fill makes r the run of occ over nkeys keys.
func (r *Run) fill(nkeys int, occ []int32) *Run {
	r.Reset(nkeys)
	for _, ki := range occ {
		r.Add(ki)
	}
	return r
}

// candSet materializes the candidate set (list order is representation,
// the set is the state).
func (hh *HeavyHitters) candSet() map[uint64]bool {
	out := make(map[uint64]bool, len(hh.ids))
	for _, id := range hh.ids {
		out[id] = true
	}
	return out
}

// sameHH requires a and b to hold the same state: counters in the same
// storage form, candidate set, total, report and checkpoint bytes.
func sameHH(t *testing.T, name string, a, b *HeavyHitters) {
	t.Helper()
	if a.total != b.total {
		t.Errorf("%s: total %d != %d", name, a.total, b.total)
	}
	if a.cs.domain != b.cs.domain || !reflect.DeepEqual(a.cs.table, b.cs.table) {
		t.Errorf("%s: CountSketch counters diverged", name)
	}
	if !reflect.DeepEqual(a.candSet(), b.candSet()) {
		t.Errorf("%s: candidate sets diverged:\n seq %v\n bat %v", name, a.candSet(), b.candSet())
	}
	if !reflect.DeepEqual(a.Report(), b.Report()) {
		t.Errorf("%s: reports diverged", name)
	}
	sa, err := a.appendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.appendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa, sb) {
		t.Errorf("%s: checkpoint bytes differ", name)
	}
}

// TestHeavyHittersBatchEquivalence drives identically-seeded sketches
// through scalar Add and the one-call batch path, one Run and one
// BatchMemory reused across batches, and requires identical state after
// every batch. Each batch is classified from the scalar twin's candidate
// set before it: one whose new keys fit the free slots (the counts path)
// or one a refresh falls inside (the replay). The cases cover wide
// sketches, dense-domain sketches, a split that mixes both classes, keys
// that cross the domain, so that a flush before a refresh widens a dense
// sketch in the middle of a batch, and a sampling mask, as a subsampled
// battery level passes, under which the replay compacts the run's
// occurrences before refreshing inside batches.
func TestHeavyHittersBatchEquivalence(t *testing.T) {
	type tc struct {
		name     string
		phi      float64
		domain   int // 0 builds a wide sketch
		universe int
		maxBatch int // 0: random splits over the whole remaining stream
		mixed    bool
		widens   bool
		sampled  bool // feed only the keys of a random half of the key indices
	}
	cases := []tc{
		{name: "wide phi=0.5", phi: 0.5, universe: 400},
		{name: "wide phi=0.05", phi: 0.05, universe: 400},
		{name: "wide phi=0.005", phi: 0.005, universe: 400},
		{name: "dense phi=0.5", phi: 0.5, domain: 400, universe: 400},
		{name: "dense phi=0.05", phi: 0.05, domain: 400, universe: 400},
		{name: "dense phi=0.005", phi: 0.005, domain: 400, universe: 400},
		{name: "dense mixed splits", phi: 0.05, domain: 400, universe: 400, maxBatch: 40, mixed: true},
		{name: "wide mixed splits", phi: 0.05, universe: 400, maxBatch: 40, mixed: true},
		{name: "crosses domain", phi: 0.5, domain: 300, universe: 400, widens: true},
		{name: "dense sampled", phi: 0.05, domain: 400, universe: 400, maxBatch: 400, mixed: true, sampled: true},
		{name: "wide sampled", phi: 0.05, universe: 400, maxBatch: 400, mixed: true, sampled: true},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(11))
		keys, occ, raw := batchStream(20000, c.universe, rng)
		seq := newF2HeavyHitters(c.phi, c.domain, rand.New(rand.NewSource(5)))
		bat := newF2HeavyHitters(c.phi, c.domain, rand.New(rand.NewSource(5)))

		var bits []uint8
		if c.sampled {
			bits = make([]uint8, len(keys))
			for ki := range bits {
				bits[ki] = uint8(rng.Intn(2))
			}
		}
		var run Run
		var mem BatchMemory
		fitting, refreshing, widenedMidBatch := 0, 0, false
		for start := 0; start < len(occ); {
			span := len(occ) - start
			if c.maxBatch > 0 && span > c.maxBatch {
				span = c.maxBatch
			}
			end := start + rng.Intn(span+1)

			// Classify the batch from the scalar twin's state before it.
			fresh := map[uint64]bool{}
			for j, x := range raw[start:end] {
				if (bits == nil || bits[occ[start+j]] == 1) && !seq.has(x) {
					fresh[x] = true
				}
			}
			if len(fresh) <= seq.cap-len(seq.ids) {
				fitting++
			} else {
				refreshing++
			}
			// A key past the domain ahead of a refresh, while the sketch
			// is still dense, is widened by that refresh's flush.
			crossed := false
			for j, x := range raw[start:end] {
				if bits != nil && bits[occ[start+j]] == 0 {
					continue
				}
				before := len(seq.ids)
				dense := seq.cs.domain != 0
				seq.Add(x)
				if dense && x >= uint64(c.domain) {
					crossed = true
				}
				if len(seq.ids) < before && crossed {
					widenedMidBatch = true
				}
			}

			bat.addBatch(keys, run.fill(len(keys), occ[start:end]), bits, &mem)
			sameHH(t, c.name, seq, bat)
			if t.Failed() {
				t.Fatalf("%s: diverged at occurrences [%d, %d)", c.name, start, end)
			}
			start = end
		}
		if c.domain > 0 && !c.widens && bat.cs.domain == 0 {
			t.Errorf("%s: a dense sketch widened", c.name)
		}
		if c.mixed && (fitting == 0 || refreshing == 0) {
			t.Errorf("%s: %d batches fit and %d refresh inside; want both", c.name, fitting, refreshing)
		}
		if c.widens && (!widenedMidBatch || bat.cs.domain != 0) {
			t.Errorf("%s: no flush widened the sketch in the middle of a batch", c.name)
		}
	}
}

// TestContributingBatchEquivalence covers the full battery: levels with
// rate ≥ 1 and subsampled levels, across random batch splits.
func TestContributingBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	keys, occ, raw := batchStream(30000, 600, rng)

	cfg := DefaultContribConfig()
	seq := NewF2Contributing(0.05, 64, 600, cfg, rand.New(rand.NewSource(23)))
	bat := NewF2Contributing(0.05, 64, 600, cfg, rand.New(rand.NewSource(23)))
	for _, x := range raw {
		seq.Add(x)
	}
	var run Run
	var mem BatchMemory
	for start := 0; start < len(occ); {
		end := start + rng.Intn(len(occ)-start+1)
		bat.AddBatch(keys, run.fill(len(keys), occ[start:end]), &mem)
		start = end
	}

	for i := range seq.levels {
		a, b := seq.levels[i].hh, bat.levels[i].hh
		if a.total != b.total {
			t.Errorf("level %d: total %d != %d", i, a.total, b.total)
		}
		if !reflect.DeepEqual(a.cs.table, b.cs.table) {
			t.Errorf("level %d: counters diverged", i)
		}
		if !reflect.DeepEqual(a.candSet(), b.candSet()) {
			t.Errorf("level %d: candidate tables diverged", i)
		}
	}
	if !reflect.DeepEqual(seq.Report(), bat.Report()) {
		t.Error("reports diverged")
	}
}
