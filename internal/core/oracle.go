package core

import (
	"math/rand"

	"streamcover/internal/stream"
)

// OracleResult is what an (α, δ, η)-oracle reports after its single pass.
type OracleResult struct {
	// Value is the coverage estimate. Per Definition 3.4 it is (w.h.p.)
	// never above the optimal coverage, and whenever OPT covers at least
	// a 1/η fraction of the universe it is at least OPT/Õ(α).
	Value float64
	// Feasible is false when every subroutine declined (the paper's
	// "infeasible" return).
	Feasible bool
	// SetIDs are up to k set IDs backing the estimate, for the reporting
	// variant (Theorem 3.2). May be nil when only estimation ran.
	SetIDs []uint32
}

// CoverageOracle is the streaming contract of Definition 3.4: a
// single-pass structure whose post-pass Result must (1) never overestimate
// the optimal coverage w.h.p. and (2) reach OPT/α whenever OPT ≥ |U|/η.
// EstimateMaxCover (Theorem 3.6) is generic over this interface.
// ProcessBatch(edges, sc) is the oracle's one ingest path: it consumes
// the edges in arrival order, with sc indexed over them (the estimator's
// reduced view, or sc.IndexColumns over the edges' columns). The paper's
// per-edge transcription lives in the package's tests, as the reference
// ProcessBatch must match.
type CoverageOracle interface {
	ProcessBatch(edges []stream.Edge, sc *BatchScratch)
	Result() OracleResult
	SpaceWords() int
}

// OracleFactory builds a fresh oracle instance for the (possibly
// universe-reduced) dimensions in d.
type OracleFactory func(d Derived, rng *rand.Rand) CoverageOracle

// Oracle is the paper's (Õ(α), δ, η)-oracle (Figure 2, Theorem 4.1): it
// runs LargeCommon, LargeSet and SmallSet in parallel on the same pass and
// returns their maximum. The case analysis of Section 4 guarantees that on
// any instance with OPT ≥ |U|/η at least one subroutine accepts:
//
//	case I   — many β-common elements            → LargeCommon
//	case II  — |C(OPTlarge)| ≥ |C(OPT)|/2        → LargeSet
//	case III — |C(OPTlarge)| < |C(OPT)|/2        → SmallSet
//
// (Figure 2 skips SmallSet when sα ≥ 2k, where Claim 4.3 forces case II;
// with w = min(k, α) and practical constants sα < 2k always holds, and an
// extra subroutine can only raise the max, so all three always run.)
type Oracle struct {
	d  Derived
	lc *LargeCommon
	ls *LargeSet
	ss *SmallSet
}

// NewOracle builds the three-subroutine oracle.
func NewOracle(d Derived, rng *rand.Rand) *Oracle {
	return &Oracle{
		d:  d,
		lc: NewLargeCommon(d, rng),
		ls: NewLargeSet(d, rng),
		ss: NewSmallSet(d, rng),
	}
}

// NewOracleFactory adapts NewOracle to the OracleFactory signature.
func NewOracleFactory() OracleFactory {
	return func(d Derived, rng *rand.Rand) CoverageOracle {
		return NewOracle(d, rng)
	}
}

// Result returns the maximum of the subroutines' estimates, with the
// winner's candidate sets attached.
func (o *Oracle) Result() OracleResult {
	res := OracleResult{}
	if v, _, ok := o.lc.Estimate(); ok && v > res.Value {
		res = OracleResult{Value: v, Feasible: true, SetIDs: o.lc.CandidateSets()}
	}
	if lsr := o.ls.Estimate(); lsr.Feasible && lsr.Value > res.Value {
		res = OracleResult{Value: lsr.Value, Feasible: true, SetIDs: o.ls.CandidateSets(lsr)}
	}
	if ssr := o.ss.Estimate(); ssr.Feasible && ssr.Value > res.Value {
		res = OracleResult{Value: ssr.Value, Feasible: true, SetIDs: ssr.SetIDs}
	}
	return res
}

// SpaceWords sums the three subroutines.
func (o *Oracle) SpaceWords() int {
	return o.lc.SpaceWords() + o.ls.SpaceWords() + o.ss.SpaceWords()
}

// SpaceBreakdown reports each subroutine's retained words, for the space
// composition experiment.
func (o *Oracle) SpaceBreakdown() map[string]int {
	return map[string]int{
		"largecommon": o.lc.SpaceWords(),
		"largeset":    o.ls.SpaceWords(),
		"smallset":    o.ss.SpaceWords(),
	}
}

// LargeCommonEstimate exposes the case-I subroutine's verdict, for the
// dispatch experiment (E15) and diagnostics.
func (o *Oracle) LargeCommonEstimate() (val, beta float64, ok bool) {
	return o.lc.Estimate()
}

// LargeSetEstimate exposes the case-II subroutine's verdict.
func (o *Oracle) LargeSetEstimate() LargeSetResult { return o.ls.Estimate() }

// SmallSetEstimate exposes the case-III subroutine's verdict.
func (o *Oracle) SmallSetEstimate() SmallSetResult { return o.ss.Estimate() }
