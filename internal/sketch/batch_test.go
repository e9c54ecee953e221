package sketch

import (
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

// candSet materializes the candidate set (list order is representation,
// the set is the state).
func (hh *HeavyHitters) candSet() map[uint64]bool {
	out := make(map[uint64]bool, len(hh.ids))
	for _, id := range hh.ids {
		out[id] = true
	}
	return out
}

// TestHeavyHittersBatchEquivalence drives identically-seeded sketches
// through the scalar and batched paths (batches split at random
// boundaries) and requires identical internal state: counters, candidate
// set, totals, and reports.
func TestHeavyHittersBatchEquivalence(t *testing.T) {
	for _, phi := range []float64{0.5, 0.05, 0.005} {
		rng := rand.New(rand.NewSource(11))
		keys, occ, raw := batchStream(20000, 400, rng)

		seq := NewF2HeavyHitters(phi, rand.New(rand.NewSource(5)))
		bat := NewF2HeavyHitters(phi, rand.New(rand.NewSource(5)))
		for _, x := range raw {
			seq.Add(x)
		}
		var mem BatchMemory
		for start := 0; start < len(occ); {
			end := start + rng.Intn(len(occ)-start+1)
			bat.BeginBatch(keys, &mem)
			for _, ki := range occ[start:end] {
				bat.AddBatched(ki)
			}
			bat.EndBatch()
			start = end
		}

		if seq.total != bat.total {
			t.Errorf("phi=%v: total %d != %d", phi, seq.total, bat.total)
		}
		if !reflect.DeepEqual(seq.cs.table, bat.cs.table) {
			t.Errorf("phi=%v: CountSketch counters diverged", phi)
		}
		if !reflect.DeepEqual(seq.candSet(), bat.candSet()) {
			t.Errorf("phi=%v: candidate tables diverged:\n seq %v\n bat %v", phi, seq.candSet(), bat.candSet())
		}
		if !reflect.DeepEqual(seq.Report(), bat.Report()) {
			t.Errorf("phi=%v: reports diverged", phi)
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
	var mem BatchMemory
	for start := 0; start < len(occ); {
		end := start + rng.Intn(len(occ)-start+1)
		bat.AddBatch(keys, occ[start:end], &mem)
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
