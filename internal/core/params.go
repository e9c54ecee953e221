// Package core implements the paper's contribution: the single-pass
// Õ(m/α²)-space α-approximation for Max k-Cover on edge-arrival streams
// (Indyk–Vakilian, PODS'19, Theorems 3.1 and 3.2).
//
// The structure mirrors the paper exactly:
//
//   - EstimateMaxCover (Figure 1) guesses the optimal coverage z over a
//     geometric ladder, applies the universe reduction of Section 3.1
//     (a 4-wise hash U → [z], Lemma 3.5), and feeds each reduced stream to
//     an (α, δ, η)-oracle (Definition 3.4, Theorem 3.6).
//   - Oracle (Figure 2) runs three subroutines in parallel and returns
//     their maximum: LargeCommon (Section 4.1, multi-layered set
//     sampling), LargeSet (Section 4.2 and Appendix B, supersets + F2
//     heavy hitters/contributing classes) and SmallSet (Section 4.3,
//     set subsampling + element sampling).
//
// Every subroutine is a single-pass structure with ProcessBatch and a
// post-pass estimate; the top level's ProcessColumns fans each chunk of
// arriving edges out to all parallel instances, so the whole algorithm
// performs exactly one pass. The paper states each figure edge by edge;
// that per-edge transcription is kept in the package's tests
// (reference_test.go) as the reference the batch path must match byte
// for byte.
package core

import (
	"fmt"
	"math"

	"streamcover/internal/sketch"
)

// Params carries the tunable constants of the algorithm. The paper fixes
// them (Table 2) at values that make the w.h.p. proofs go through but are
// astronomically conservative at feasible scale; Practical() keeps every
// structural choice (which samplers exist, what is compared to what) and
// recalibrates only the constants. Paper() instantiates Table 2 literally
// for documentation and formula tests.
type Params struct {
	// Eta is η, the oracle's promised-coverage parameter: the oracle must
	// answer when OPT covers at least 1/η of the (reduced) universe.
	// Paper: 4.
	Eta float64
	// Reps is the number of independent repetitions per coverage guess in
	// EstimateMaxCover (the paper's log(1/δ) boosting loop).
	Reps int
	// ZBase is the ratio of the coverage-guess ladder (paper: 2).
	ZBase float64
	// Independence overrides the Θ(log(mn)) hash independence degree;
	// 0 means use hash.LogDegree (the paper's choice).
	Independence int
	// L0Eps is the relative error target of every L0 sketch (paper: 1/2).
	L0Eps float64
	// UseHLL switches the distinct-count backend from the bottom-k L0 to
	// HyperLogLog (smaller at equal error on large universes; the paper's
	// Theorem 2.12 is agnostic to the implementation).
	UseHLL bool

	// LargeCommon (Section 4.1, Figure 3).

	// SetSampleBoost multiplies the per-layer set-sampling rate β·k/m
	// (paper: c·log m, the set-sampling oversampling factor of Lemma A.6).
	SetSampleBoost float64
	// SigmaFrac is the acceptance threshold: layer β's L0 value must reach
	// SigmaFrac·β·z/α to report (paper: σ/4 with σ = 1/(2500·log²(mn))).
	SigmaFrac float64

	// LargeSet (Section 4.2 / Appendix B, Figures 4, 6, 7).

	// LSReps is the number of parallel element-sample repetitions
	// (paper: O(log n)).
	LSReps int
	// SLargeFrac sets s = SLargeFrac·w/α, the "large set" contribution
	// cutoff: OPTlarge is the sets contributing at least z/(sα)
	// (paper: s = (9/5000)·w/(α·√(2η·log(sα))·log(mn)), i.e. Θ̃(w/α)).
	SLargeFrac float64
	// FMult is f, the allowed multiplicity of a non-common element inside
	// one superset, which divides superset total size to bound coverage
	// (paper: 7·log(mn), Claim 4.10).
	FMult float64
	// ElemSampleTarget sets the element-sampling rate ρ = Target·α/n
	// (paper: ρ = t·s·α·η/|U| with t = 5000·log²(mn)/s).
	ElemSampleTarget float64
	// Phi1Const scales φ1 = Phi1Const·α²/m, the contributing threshold for
	// the small-superset case (paper Eq. 6: Θ̃(α²/m)).
	Phi1Const float64
	// Phi2 is φ2, the contributing threshold for the large-superset case
	// (paper: 1/(2·log α)).
	Phi2 float64
	// QFactor scales the number of supersets: |Q| = QFactor·m·log2(m)/w
	// (paper: c·m·log m/w).
	QFactor float64
	// R2Frac sets r2 = R2Frac·|Q|, the largest contributing-class size the
	// heavy-hitter battery handles before the sampled-superset fallback
	// takes over (paper: γ-scaled |Q|, Eq. 8).
	R2Frac float64
	// SupersetSampleSize is how many supersets the fallback samples and
	// tracks with L0 sketches (paper: 12·|Q|·log m/r2).
	SupersetSampleSize int
	// ContribCfg tunes the F2-contributing batteries.
	ContribCfg sketch.ContribConfig

	// SmallSet (Section 4.3, Figure 5).

	// SSGuesses is the number of coverage-fraction guesses γg (powers of
	// 1/2 starting at 1; paper: log α).
	SSGuesses int
	// MRateConst sets the set-subsampling rate min(1, MRateConst/α)
	// (paper: 18/(sα), Corollary 4.19 with c = 18).
	MRateConst float64
	// KPrimeConst sets the reduced budget k' = max(1, KPrimeConst·k/α)
	// (paper: 36·k/(sα)).
	KPrimeConst float64
	// ElemPerSet sets the element-sample size |L| ≈ ElemPerSet·k'/γg
	// (paper: Θ̃(η'k') per Lemma 2.5).
	ElemPerSet float64
	// StoreCapFactor caps the stored sub-instance at
	// StoreCapFactor·(m/α² + k) pairs; exceeding it aborts the layer as
	// the paper's "terminate" branch does (Lemma 4.21's Õ(m/α²) bound).
	StoreCapFactor float64
	// AcceptFrac accepts a layer when the greedy k'-cover of the stored
	// instance covers at least AcceptFrac·γg·|L| sampled elements
	// (paper: solγg = Ω̃(k/α)).
	AcceptFrac float64
}

// Practical returns constants calibrated for laptop-scale instances
// (n, m up to a few hundred thousand). See DESIGN.md §3 for the
// substitution rationale.
func Practical() Params {
	contrib := sketch.DefaultContribConfig()
	contrib.Independence = 8
	return Params{
		Eta:          4,
		Reps:         1,
		ZBase:        4,
		Independence: 8,
		L0Eps:        0.4,

		SetSampleBoost: 1,
		SigmaFrac:      0.1,

		LSReps:             2,
		SLargeFrac:         0.5,
		FMult:              2,
		ElemSampleTarget:   40,
		Phi1Const:          0.5,
		Phi2:               0.2,
		QFactor:            0.5,
		R2Frac:             0.25,
		SupersetSampleSize: 32,
		ContribCfg:         contrib,

		SSGuesses:      5,
		MRateConst:     8,
		KPrimeConst:    4,
		ElemPerSet:     12,
		StoreCapFactor: 32,
		AcceptFrac:     0.25,
	}
}

// Paper returns the literal Table 2 constants for given instance
// dimensions, for documentation and formula-level tests. Running the
// algorithm with these constants requires astronomically large instances
// before any subroutine accepts, exactly as the theory intends.
func Paper(m, n int) Params {
	logmn := math.Log2(float64(m)*float64(n) + 2)
	p := Practical()
	p.Eta = 4
	p.ZBase = 2
	p.L0Eps = 0.5
	p.SetSampleBoost = math.Log2(float64(m) + 2)
	p.SigmaFrac = 1.0 / (4 * 2500 * logmn * logmn) // σ/4
	p.FMult = 7 * logmn                            // f = 7·log(mn)
	p.SLargeFrac = (9.0 / 5000) / math.Sqrt(2*4*logmn*logmn)
	p.QFactor = math.Log2(float64(m) + 2)
	return p
}

// Derived carries the per-instance derived quantities of Table 2.
type Derived struct {
	M, N, K int
	Alpha   float64
	W       float64 // w = min(k, α)
	S       float64 // s: OPTlarge cutoff scale, s·α = max |OPTlarge|
	SAlpha  float64 // s·α
	P       Params
}

// Derive validates dimensions and computes the Table 2 quantities.
func Derive(m, n, k int, alpha float64, p Params) (Derived, error) {
	if m < 1 || n < 1 || k < 1 {
		return Derived{}, fmt.Errorf("core: bad dimensions m=%d n=%d k=%d", m, n, k)
	}
	if alpha < 1 {
		return Derived{}, fmt.Errorf("core: alpha %v < 1", alpha)
	}
	w := math.Min(float64(k), alpha)
	s := p.SLargeFrac * w / alpha
	if s <= 0 {
		return Derived{}, fmt.Errorf("core: derived s = %v not positive", s)
	}
	return Derived{
		M: m, N: n, K: k,
		Alpha:  alpha,
		W:      w,
		S:      s,
		SAlpha: s * alpha,
		P:      p,
	}, nil
}

// independence returns the hash independence degree to use.
func (d Derived) independence() int {
	if d.P.Independence > 0 {
		return d.P.Independence
	}
	return 0 // sentinel: callers fall back to hash.LogDegree
}
