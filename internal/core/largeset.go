package core

import (
	"math"
	"math/rand"

	"streamcover/internal/hash"
	"streamcover/internal/sketch"
)

// SupersetPartition is the random partition of F into |Q| supersets via a
// Θ(log(mn))-wise hash (Section 4.2): set S belongs to superset h(S).
// With |Q| = Θ(m·log m/w), no superset holds more than w sets (Claim 4.9)
// and no non-w-common element repeats more than f = Õ(1) times inside one
// superset (Claim 4.10), so a superset's total size is an f-accurate proxy
// for its coverage.
type SupersetPartition struct {
	h *hash.Poly
	q int
}

// NewSupersetPartition builds a partition with |Q| = QFactor·m·log2(m)/w
// buckets (minimum 2).
func NewSupersetPartition(d Derived, rng *rand.Rand) *SupersetPartition {
	q := int(math.Ceil(d.P.QFactor * float64(d.M) * math.Log2(float64(d.M)+2) / d.W))
	if q < 2 {
		q = 2
	}
	return &SupersetPartition{h: d.newHash(rng), q: q}
}

// Superset maps a set id to its superset id in [0, Q).
func (sp *SupersetPartition) Superset(set uint32) uint64 {
	return sp.h.Range(uint64(set), uint64(sp.q))
}

// Q reports the number of supersets.
func (sp *SupersetPartition) Q() int { return sp.q }

// Members enumerates the sets of one superset (post-pass recovery for
// solution reporting), up to the cap.
func (sp *SupersetPartition) Members(m int, superset uint64, cap int) []uint32 {
	var out []uint32
	for i := 0; i < m; i++ {
		if sp.Superset(uint32(i)) == superset {
			out = append(out, uint32(i))
			if len(out) == cap {
				break
			}
		}
	}
	return out
}

// SpaceWords counts the retained hash function.
func (sp *SupersetPartition) SpaceWords() int { return sp.h.SpaceWords() + 1 }

// LargeSet is the heavy-hitter subroutine of Section 4.2 / Appendix B
// (Figures 4, 6 and 7). It handles oracle case II: an optimal solution
// whose coverage is dominated by OPTlarge, the ≤ sα sets contributing at
// least z/(sα) each. Each of LSReps repetitions:
//
//  1. samples elements L ⊆ U at rate ρ = Θ̃(α/n) (step 1 of Appendix B,
//     so that w.h.p. some repetition avoids all w-common elements),
//  2. partitions sets into supersets and feeds superset IDs of sampled
//     edges to two F2-Contributing batteries — Cntr_small for classes of
//     size ≤ r1 = 3sα (Case 1, φ1 = Ω̃(α²/m)) and Cntr_large for classes
//     of size ≤ r2 (Case 2, φ2 = Ω̃(1)),
//  3. tracks a uniform sample of supersets with L0 sketches — the
//     fallback for contributing classes larger than r2 (Figure 6's last
//     block).
//
// A repetition reports a superset whose frequency (total size on L)
// clears thr1 = |L|/Θ(ηsα) or thr2 = |L|/Θ(ηα); dividing by f bounds its
// coverage from below, and rescaling by 1/ρ returns to universe scale.
type LargeSet struct {
	d    Derived
	reps []lsRep
	rho  float64
}

type lsRep struct {
	elemSamp   *hash.Poly
	part       *SupersetPartition
	cntrSmall  *sketch.Contributing
	cntrLarge  *sketch.Contributing
	sampled    map[uint64]sketch.DistinctCounter // fallback: sampled superset -> coverage sketch
	sampledIDs []uint64
}

// NewLargeSet builds the subroutine for the dimensions in d.
func NewLargeSet(d Derived, rng *rand.Rand) *LargeSet {
	rho := d.P.ElemSampleTarget * d.Alpha / float64(d.N)
	if rho > 1 {
		rho = 1
	}
	phi1 := d.P.Phi1Const * d.Alpha * d.Alpha / float64(d.M)
	if phi1 > 1 {
		phi1 = 1
	}
	if phi1 < 1e-6 {
		phi1 = 1e-6
	}
	phi2 := d.P.Phi2
	ls := &LargeSet{d: d, rho: rho}
	for r := 0; r < d.P.LSReps; r++ {
		part := NewSupersetPartition(d, rng)
		r1 := int(math.Ceil(3 * d.SAlpha))
		if r1 < 1 {
			r1 = 1
		}
		r2 := int(math.Ceil(d.P.R2Frac * float64(part.Q())))
		if r2 < 1 {
			r2 = 1
		}
		rep := lsRep{
			elemSamp:  d.newHash(rng),
			part:      part,
			cntrSmall: sketch.NewF2Contributing(phi1, r1, part.Q(), d.P.ContribCfg, rng),
			cntrLarge: sketch.NewF2Contributing(phi2, r2, part.Q(), d.P.ContribCfg, rng),
			sampled:   make(map[uint64]sketch.DistinctCounter),
		}
		// Fallback sample of supersets, tracked exactly by L0 sketches.
		sample := d.P.SupersetSampleSize
		if sample > part.Q() {
			sample = part.Q()
		}
		for _, id := range rng.Perm(part.Q())[:sample] {
			rep.sampled[uint64(id)] = d.newL0(rng)
			rep.sampledIDs = append(rep.sampledIDs, uint64(id))
		}
		ls.reps = append(ls.reps, rep)
	}
	return ls
}

// Rho reports the element-sampling rate.
func (ls *LargeSet) Rho() float64 { return ls.rho }

// LargeSetResult is a repetition's winning superset and estimate.
type LargeSetResult struct {
	Value    float64 // universe-scale coverage lower bound
	Superset uint64
	Rep      int
	Feasible bool
}

// Estimate returns the best result across repetitions. A repetition
// accepts a superset when its measured frequency on L clears half the
// paper's threshold (thr1 for Case-1 classes, thr2 for Case-2 and the
// fallback); the estimate is (2ṽ/3f)/ρ — frequency corrected down by the
// multiplicity allowance f, rescaled to universe scale, capped at n.
func (ls *LargeSet) Estimate() LargeSetResult {
	expL := ls.rho * float64(ls.d.N)
	thr1 := expL / (6 * ls.d.P.Eta * ls.d.SAlpha)
	thr2 := expL / (3 * ls.d.P.Eta * ls.d.Alpha)
	best := LargeSetResult{}
	consider := func(rep int, superset uint64, freq float64, thr float64, dedup bool) {
		if freq < thr/2 {
			return
		}
		val := 2 * freq / 3
		if !dedup {
			val /= ls.d.P.FMult // total size -> coverage (Claim 4.10)
		}
		val /= ls.rho // back to universe scale
		if val > float64(ls.d.N) {
			val = float64(ls.d.N)
		}
		if val > best.Value {
			best = LargeSetResult{Value: val, Superset: superset, Rep: rep, Feasible: true}
		}
	}
	for i := range ls.reps {
		rep := &ls.reps[i]
		for _, it := range rep.cntrSmall.Report() {
			consider(i, it.ID, it.Weight, thr1, false)
		}
		for _, it := range rep.cntrLarge.Report() {
			consider(i, it.ID, it.Weight, thr2, false)
		}
		for _, id := range rep.sampledIDs {
			consider(i, id, rep.sampled[id].Estimate(), thr2, true)
		}
	}
	return best
}

// CandidateSets recovers the member sets (≤ k of them; supersets hold at
// most w ≤ k sets w.h.p. per Claim 4.9) of res, the winning superset that
// Estimate returned. Returns nil if infeasible.
func (ls *LargeSet) CandidateSets(res LargeSetResult) []uint32 {
	if !res.Feasible {
		return nil
	}
	return ls.reps[res.Rep].part.Members(ls.d.M, res.Superset, ls.d.K)
}

// SpaceWords sums all repetitions.
func (ls *LargeSet) SpaceWords() int {
	w := 2
	for i := range ls.reps {
		rep := &ls.reps[i]
		w += rep.elemSamp.SpaceWords() + rep.part.SpaceWords()
		w += rep.cntrSmall.SpaceWords() + rep.cntrLarge.SpaceWords()
		for _, de := range rep.sampled {
			w += de.SpaceWords() + 1
		}
	}
	return w
}
