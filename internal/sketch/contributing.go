package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"streamcover/internal/hash"
)

// Contributing implements the F2-Contributing(γ, r) algorithm of
// Section 2.2 (Theorem 2.11): it returns at least one coordinate from every
// γ-contributing class R_t = {j : 2^(t-1) < a[j] ≤ 2^t} with
// |R_t|·2^(2t) ≥ γ·F2(a), together with a (1 ± 1/2)-approximate frequency.
//
// The construction runs one heavy-hitter instance per guessed class size
// n_t ∈ {2^0, 2^1, …, r}. The level for guess 2^i samples coordinates (not
// updates) at rate ~c·log(m)/2^i via a Θ(log(mn))-wise hash, so roughly
// polylog coordinates of a size-2^i class survive; by Lemma 2.9 each
// survivor of a contributing class is an Ω̃(γ)-heavy hitter of the sampled
// substream and is caught by that level's F2-HeavyHitter. A surviving
// coordinate keeps all of its updates, so its reported frequency needs no
// rescaling.
type Contributing struct {
	gamma  float64
	m      uint64 // key-universe size; keys are (almost) always in [0, m)
	levels []contribLevel
}

type contribLevel struct {
	rate    float64
	sampler *hash.Poly
	hh      *HeavyHitters

	// Persistent sampling-bit memo for the dense key universe [0, m): the
	// Bernoulli decision is a pure function of (key, rate), so it is
	// evaluated once ever per key instead of once per batch. 0 = unknown,
	// 1 = not sampled, 2 = sampled. A reconstructible cache of hash
	// evaluations — excluded from SpaceWords, never serialized.
	dBits []uint8
}

// ContribConfig tunes the practical constants of the construction. The
// paper's literal constants (φ = γ/(432·log n·log^(c+1) m), rate
// 12·log(m)/2^i) are proof artifacts; the defaults below preserve the
// structure — per-level subsampling plus a heavy-hitter battery — at
// feasible scale. See DESIGN.md §3.
type ContribConfig struct {
	// SampleBoost multiplies the per-level sampling rate c·log2(m)/2^i.
	SampleBoost float64
	// PhiFraction sets each level's heavy-hitter threshold to
	// PhiFraction·γ.
	PhiFraction float64
	// Independence overrides the level samplers' hash independence degree
	// (0 = the paper's Θ(log(mn)) via hash.LogDegree).
	Independence int
}

// DefaultContribConfig returns practical constants.
func DefaultContribConfig() ContribConfig {
	return ContribConfig{SampleBoost: 4, PhiFraction: 0.25}
}

// NewF2Contributing builds the battery for contributing threshold gamma,
// maximum class size r, and key-universe size m (used only to size the
// hash-family independence and sampling rates).
func NewF2Contributing(gamma float64, r int, m int, cfg ContribConfig, rng *rand.Rand) *Contributing {
	if gamma <= 0 || gamma > 1 {
		panic(fmt.Sprintf("sketch: Contributing gamma %v out of (0,1]", gamma))
	}
	if r < 1 {
		r = 1
	}
	if cfg.SampleBoost <= 0 || cfg.PhiFraction <= 0 {
		cfg = DefaultContribConfig()
	}
	numLevels := 1
	for sz := 1; sz < r; sz *= 2 {
		numLevels++
	}
	logM := math.Log2(float64(m) + 2)
	phi := cfg.PhiFraction * gamma
	if phi > 1 {
		phi = 1
	}
	c := &Contributing{gamma: gamma, m: uint64(m)}
	newSampler := func() *hash.Poly {
		if cfg.Independence > 0 {
			return hash.NewPoly(cfg.Independence, rng)
		}
		return hash.NewLogWise(m, m, rng)
	}
	for i := 0; i < numLevels; i++ {
		rate := cfg.SampleBoost * logM / float64(uint64(1)<<uint(i))
		if rate > 1 {
			rate = 1
		}
		// The caller's keys live in [0, m) (coordinate/superset IDs), so
		// every level's CountSketch is dense over that domain, and its hash
		// evaluations — CountSketch rows and sampling bits — are memoized
		// once per key for the sketch's lifetime.
		hh := newF2HeavyHitters(phi, m, rng)
		c.levels = append(c.levels, contribLevel{
			rate:    rate,
			sampler: newSampler(),
			hh:      hh,
		})
	}
	return c
}

// sampled reports lv.sampler.Bernoulli(x, lv.rate) as a bit, 1 for a
// sampled key, through the persistent per-key memo (in-domain keys only
// hash once ever).
func (lv *contribLevel) sampled(x uint64, m uint64) uint8 {
	if x < m {
		if lv.dBits == nil {
			lv.dBits = make([]uint8, m)
		}
		st := lv.dBits[x]
		if st == 0 {
			st = 1
			if lv.sampler.Bernoulli(x, lv.rate) {
				st = 2
			}
			lv.dBits[x] = st
		}
		return st - 1
	}
	if lv.sampler.Bernoulli(x, lv.rate) {
		return 1
	}
	return 0
}

// Add feeds one unit-weight occurrence of key x to every level whose
// coordinate sample retains x.
func (c *Contributing) Add(x uint64) {
	for i := range c.levels {
		lv := &c.levels[i]
		if lv.rate >= 1 || lv.sampled(x, c.m) != 0 {
			lv.hh.Add(x)
		}
	}
}

// AddBatch feeds run, a batch of occurrences of keys, to every level. It
// is bit-for-bit equivalent to calling Add per occurrence: the
// coordinate-sampling bit is a pure function of the key, so it is read
// once per distinct key instead of once per occurrence, and each level
// takes the whole batch in one HeavyHitters call, which lands it as
// per-key counts or replays it without a data-dependent branch (a
// sampled level first compacts its occurrences by those bits). Levels
// are independent, so running them level-major instead of
// occurrence-major changes no state. mem is the caller's batch memory,
// passed to each level in turn.
func (c *Contributing) AddBatch(keys []uint64, run *Run, mem *BatchMemory) {
	for i := range c.levels {
		lv := &c.levels[i]
		var bits []uint8
		if lv.rate < 1 {
			// Only the run's own keys are read, so only they need a bit.
			if cap(mem.bits) < len(keys) {
				mem.bits = make([]uint8, len(keys))
			}
			bits = mem.bits[:len(keys)]
			for _, ki := range run.first {
				bits[ki] = lv.sampled(keys[ki], c.m)
			}
		}
		lv.hh.addBatch(keys, run, bits, mem)
	}
}

// Report returns the union of all levels' heavy hitters, deduplicated by
// coordinate (keeping the maximum weight estimate), sorted by descending
// weight. Theorem 2.11 guarantees it contains a representative of every
// γ-contributing class with the stated probability.
func (c *Contributing) Report() []WeightedItem {
	best := make(map[uint64]float64)
	for i := range c.levels {
		for _, it := range c.levels[i].hh.Report() {
			if it.Weight > best[it.ID] {
				best[it.ID] = it.Weight
			}
		}
	}
	out := make([]WeightedItem, 0, len(best))
	for id, w := range best {
		out = append(out, WeightedItem{ID: id, Weight: w})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Levels reports the number of parallel class-size guesses.
func (c *Contributing) Levels() int { return len(c.levels) }

// SpaceWords sums all levels.
func (c *Contributing) SpaceWords() int {
	words := 2
	for i := range c.levels {
		words += c.levels[i].sampler.SpaceWords() + c.levels[i].hh.SpaceWords() + 1
	}
	return words
}
