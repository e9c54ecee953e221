package core

import (
	"math/rand"

	"streamcover/internal/hash"
	"streamcover/internal/sketch"
)

// LargeCommon is the multi-layered set-sampling subroutine of Section 4.1
// (Figure 3). It handles oracle case I: some β ≤ α has many (βk)-common
// elements (|U^cmn_{βk}| ≥ σβ|U|/α). For every guess β_g in a geometric
// ladder it samples ~β_g·k sets and measures their coverage with an L0
// sketch; by Lemma 2.3 the sampled sets cover all (β_g·k)-common elements,
// and by Observation 2.4 the best k sets among them retain a 1/β_g
// fraction of that coverage, so 2·VAL/(3β_g) is a certified lower bound on
// OPT whenever the layer's L0 value clears its threshold.
//
// The layers are nested: one retained hash value per set, compared against
// the ladder of rate thresholds, so F^rnd(β) ⊆ F^rnd(2β) and one edge
// costs one hash evaluation regardless of the number of layers. Marginal
// sampling rates match the paper's; nesting only correlates layers with
// each other, which none of the per-layer guarantees rely on.
type LargeCommon struct {
	d      Derived
	h      *hash.Poly
	layers []lcLayer
}

type lcLayer struct {
	beta   float64
	thresh uint64 // sampled iff h(set) < thresh
	rate   float64
	de     sketch.DistinctCounter
}

// NewLargeCommon builds the ladder β_g ∈ {1, 2, 4, …} up to α. (The paper
// starts at β_g = 2; the β_g = 1 layer is free and doubles as the
// candidate pool for solution reporting.)
func NewLargeCommon(d Derived, rng *rand.Rand) *LargeCommon {
	lc := &LargeCommon{d: d, h: d.newHash(rng)}
	for beta := 1.0; beta <= d.Alpha; beta *= 2 {
		rate := d.P.SetSampleBoost * beta * float64(d.K) / float64(d.M)
		if rate > 1 {
			rate = 1
		}
		lc.layers = append(lc.layers, lcLayer{
			beta:   beta,
			rate:   rate,
			thresh: rateThreshold(rate),
			de:     d.newL0(rng),
		})
	}
	return lc
}

// rateThreshold converts a sampling rate to a field-value threshold.
func rateThreshold(rate float64) uint64 {
	if rate >= 1 {
		return hash.Prime
	}
	if rate <= 0 {
		return 0
	}
	return uint64(rate * float64(hash.Prime))
}

// Estimate returns the best accepted layer's estimate (Figure 3's
// 2·VAL/(3β_g)), the winning β_g, and whether any layer accepted. A layer
// accepts when its L0 value reaches SigmaFrac·β_g·n/α — the practical form
// of the paper's σβ|U|/(4α) threshold.
func (lc *LargeCommon) Estimate() (val, beta float64, ok bool) {
	for i := range lc.layers {
		l := &lc.layers[i]
		v := l.de.Estimate()
		thresh := lc.d.P.SigmaFrac * l.beta * float64(lc.d.N) / lc.d.Alpha
		if v >= thresh {
			if est := 2 * v / (3 * l.beta); est > val {
				val, beta, ok = est, l.beta, true
			}
		}
	}
	return val, beta, ok
}

// CandidateSets returns up to k set IDs backing the winning layer's
// estimate: a uniformly random k-subset of the layer's sampled sets
// (a random group of the implicit β-way partition retains a 1/β fraction
// of the sampled coverage in expectation, per Observation 2.4). Returns
// nil if no layer accepted. The subset is drawn from a source seeded by
// the subroutine's own hash at a key no set uses, one per layer, so the
// report is a pure function of the seed and the state a checkpoint
// carries: repeated calls, clones and decoded copies all agree.
func (lc *LargeCommon) CandidateSets() []uint32 {
	_, beta, ok := lc.Estimate()
	if !ok {
		return nil
	}
	for i := range lc.layers {
		if lc.layers[i].beta != beta {
			continue
		}
		var ids []uint32
		for s := 0; s < lc.d.M; s++ {
			if lc.h.Eval(uint64(s)) < lc.layers[i].thresh {
				ids = append(ids, uint32(s))
			}
		}
		if len(ids) > lc.d.K {
			rng := rand.New(rand.NewSource(int64(lc.h.Eval(uint64(lc.d.M + i)))))
			rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
			ids = ids[:lc.d.K]
		}
		return ids
	}
	return nil
}

// SpaceWords sums the shared hash and the layers' distinct counters.
func (lc *LargeCommon) SpaceWords() int {
	w := lc.h.SpaceWords() + 1
	for i := range lc.layers {
		w += lc.layers[i].de.SpaceWords() + 2
	}
	return w
}
