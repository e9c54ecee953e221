package core

import (
	"math"
	"math/rand"
	"sort"

	"streamcover/internal/hash"
	"streamcover/internal/setsystem"
	"streamcover/internal/stream"
)

// minAcceptCovered is the minimum number of held-out sampled elements a
// layer's cover must hit before its scaled estimate is trusted; it guards
// the unbiased c/ρ rescaling against small-sample variance.
const minAcceptCovered = 8

// SmallSet is the element-sampling subroutine of Section 4.3 (Figure 5).
// It handles oracle case III: an optimal solution dominated by OPTsmall,
// many sets each contributing less than z/(sα). Per Lemma 4.16 /
// Corollary 4.19, subsampling sets at rate Θ(1/(sα)) preserves a
// (k/α)-cover with a Θ̃(1/α) fraction of OPT's coverage; element sampling
// (Lemma 2.5) at rate matched to a guessed coverage fraction γ_g then
// shrinks the stored sub-instance (L, M) to Õ(m/α²) words (Lemmas 4.20
// and 4.21). After the pass, an offline greedy k'-cover of the stored
// instance is rescaled to universe scale.
//
// Two implementation notes relative to the paper:
//
//   - The set sample M is drawn once and shared by all guesses (every
//     guess uses the same distribution), and the element samples are
//     nested — one retained hash compared against per-guess thresholds —
//     so an edge costs at most three hash evaluations.
//   - Each layer stores TWO independent element samples: greedy selects
//     the cover on the pick-sample, and the estimate is the cover's
//     coverage of the held-out estimation-sample, rescaled. The paper
//     suppresses the selection bias of estimate-on-the-training-sample
//     with polylog-factor sample sizes; at practical sizes the held-out
//     split is what keeps the oracle's no-overestimate property
//     (Lemma 4.23).
type SmallSet struct {
	d        Derived
	kPrime   int
	mRate    float64
	setSamp  *hash.Poly
	pickSamp *hash.Poly
	estSamp  *hash.Poly
	layers   []ssLayer
	live     int // layers not yet dead; 0 short-circuits ProcessBatch entirely
}

type ssLayer struct {
	frac   float64 // γ_g: guessed coverage fraction of the best k'-cover of M
	rate   float64 // element-sampling rate of each of the two samples
	thresh uint64
	pick   map[uint32][]uint32 // set -> pick-sampled elements (greedy input)
	est    map[uint32][]uint32 // set -> held-out sampled elements (estimation)
	count  int
	cap    int
	dead   bool // storage cap exceeded; the paper's "terminate" branch
}

// NewSmallSet builds the guess ladder γ_g ∈ {1, 1/2, 1/4, …}
// (SSGuesses layers). k' = Θ(k/α) is the reduced budget of
// Max (36k/(sα))-Cover; mRate = Θ(1/α) is the set-subsampling rate.
func NewSmallSet(d Derived, rng *rand.Rand) *SmallSet {
	kPrime := int(math.Round(d.P.KPrimeConst * float64(d.K) / d.Alpha))
	if kPrime < 1 {
		kPrime = 1
	}
	if kPrime > d.K {
		kPrime = d.K
	}
	mRate := d.P.MRateConst / d.Alpha
	if mRate > 1 {
		mRate = 1
	}
	ss := &SmallSet{
		d:        d,
		kPrime:   kPrime,
		mRate:    mRate,
		setSamp:  d.newHash(rng),
		pickSamp: d.newHash(rng),
		estSamp:  d.newHash(rng),
	}
	capPairs := int(d.P.StoreCapFactor * (float64(d.M)/(d.Alpha*d.Alpha) + float64(kPrime) + 8))
	frac := 1.0
	for g := 0; g < d.P.SSGuesses; g++ {
		targetL := d.P.ElemPerSet * float64(kPrime) / frac
		rate := targetL / float64(d.N)
		if rate > 1 {
			rate = 1
		}
		ss.layers = append(ss.layers, ssLayer{
			frac:   frac,
			rate:   rate,
			thresh: rateThreshold(rate),
			pick:   make(map[uint32][]uint32),
			est:    make(map[uint32][]uint32),
			cap:    capPairs,
		})
		frac /= 2
	}
	ss.live = len(ss.layers)
	return ss
}

// KPrime reports the reduced cover budget k'.
func (ss *SmallSet) KPrime() int { return ss.kPrime }

// MRate reports the set-subsampling rate.
func (ss *SmallSet) MRate() float64 { return ss.mRate }

// store applies one sampled edge's pick/est hash values to every live
// layer — the per-edge logic of the batch replay and of the tests'
// per-edge reference.
func (ss *SmallSet) store(e stream.Edge, pv, ev uint64) {
	for i := range ss.layers {
		l := &ss.layers[i]
		if l.dead {
			continue
		}
		if pv < l.thresh {
			l.pick[e.Set] = append(l.pick[e.Set], e.Elem)
			l.count++
		}
		if ev < l.thresh {
			l.est[e.Set] = append(l.est[e.Set], e.Elem)
			l.count++
		}
		if l.count > 2*l.cap {
			ss.kill(l)
		}
	}
}

// kill abandons a layer (Figure 5's terminate branch) and maintains the
// live-layer count backing the all-dead short-circuit. The pair count is
// zeroed along with the stores: a dead layer retains nothing, so charging
// its terminal count in SpaceWords would count freed memory — and would
// make the count depend on whether the layer died in-stream or during a
// merge, breaking the snapshot codec's rule that behaviorally equal
// states encode equally.
func (ss *SmallSet) kill(l *ssLayer) {
	l.dead = true
	l.pick, l.est = nil, nil
	l.count = 0
	ss.live--
}

// SmallSetResult is the subroutine's estimate with its backing cover.
type SmallSetResult struct {
	Value    float64  // universe-scale coverage estimate of the k'-cover
	SetIDs   []uint32 // the k' (≤ k) sets realizing it
	Feasible bool
}

// Estimate greedily covers each live layer's pick-sample with k' sets,
// measures the chosen cover on the held-out sample, and rescales by
// 1/rate. A layer accepts when the held-out coverage reaches
// AcceptFrac·γ_g·E[|L|] (the paper's sol_γg = Ω̃(k/α) test); the best
// accepted layer wins. The held-out estimate is unbiased for the chosen
// ≤ k-set cover's true coverage, so w.h.p. the output never exceeds OPT
// (Lemma 4.23).
func (ss *SmallSet) Estimate() SmallSetResult {
	best := SmallSetResult{}
	for i := range ss.layers {
		l := &ss.layers[i]
		if l.dead || len(l.pick) == 0 {
			continue
		}
		ids, _ := greedyOnPairs(l.pick, ss.kPrime)
		covered := distinctUnion(l.est, ids)
		expL := l.rate * float64(ss.d.N)
		if float64(covered) < ss.d.P.AcceptFrac*l.frac*expL || covered < minAcceptCovered {
			continue
		}
		val := float64(covered) / l.rate
		if val > float64(ss.d.N) {
			val = float64(ss.d.N)
		}
		if val > best.Value {
			best = SmallSetResult{Value: val, SetIDs: ids, Feasible: true}
		}
	}
	return best
}

// EstimateNaive is the ablation variant of Estimate that rescales the
// PICK-sample coverage of the greedily chosen cover — i.e. it evaluates
// the cover on the same sample that selected it. Because greedy picks
// whatever covers the sample best, this estimate is biased upward
// (selection bias / sample overfitting) and violates Definition 3.4's
// no-overestimate property on noisy instances at practical sample sizes.
// Experiment E18 quantifies the inflation; production paths never call
// this.
func (ss *SmallSet) EstimateNaive() SmallSetResult {
	best := SmallSetResult{}
	for i := range ss.layers {
		l := &ss.layers[i]
		if l.dead || len(l.pick) == 0 {
			continue
		}
		ids, covered := greedyOnPairs(l.pick, ss.kPrime)
		expL := l.rate * float64(ss.d.N)
		if float64(covered) < ss.d.P.AcceptFrac*l.frac*expL || covered < minAcceptCovered {
			continue
		}
		val := float64(covered) / l.rate
		if val > float64(ss.d.N) {
			val = float64(ss.d.N)
		}
		if val > best.Value {
			best = SmallSetResult{Value: val, SetIDs: ids, Feasible: true}
		}
	}
	return best
}

// distinctUnion counts the distinct elements that the chosen sets cover in
// the held-out sample.
func distinctUnion(est map[uint32][]uint32, ids []uint32) int {
	seen := make(map[uint32]struct{})
	for _, id := range ids {
		for _, e := range est[id] {
			seen[e] = struct{}{}
		}
	}
	return len(seen)
}

// greedyOnPairs materializes a stored (set -> sampled elements) map as a
// compact set system and runs the offline greedy, returning global set IDs
// and the number of covered sampled elements.
func greedyOnPairs(pairs map[uint32][]uint32, k int) ([]uint32, int) {
	setIDs := make([]uint32, 0, len(pairs))
	for id := range pairs {
		setIDs = append(setIDs, id)
	}
	sort.Slice(setIDs, func(a, b int) bool { return setIDs[a] < setIDs[b] })
	elemIdx := make(map[uint32]uint32)
	sets := make([][]uint32, len(setIDs))
	for i, id := range setIDs {
		for _, e := range pairs[id] {
			idx, ok := elemIdx[e]
			if !ok {
				idx = uint32(len(elemIdx))
				elemIdx[e] = idx
			}
			sets[i] = append(sets[i], idx)
		}
	}
	sub := setsystem.MustNew(len(elemIdx), sets)
	local, covered := sub.LazyGreedy(k)
	out := make([]uint32, len(local))
	for i, li := range local {
		out[i] = setIDs[li]
	}
	return out, covered
}

// SpaceWords counts stored pairs, samplers and bookkeeping.
func (ss *SmallSet) SpaceWords() int {
	w := ss.setSamp.SpaceWords() + ss.pickSamp.SpaceWords() + ss.estSamp.SpaceWords() + 3
	for i := range ss.layers {
		w += ss.layers[i].count + 4 // one word per stored (set, elem) pair
	}
	return w
}
