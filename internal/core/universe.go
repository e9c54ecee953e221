package core

import (
	"math/rand"
	"runtime"

	"streamcover/internal/hash"
)

// Estimator is EstimateMaxCover (Figure 1, Theorems 3.1 and 3.6): the
// universe-reduction wrapper that turns an (α, δ, η)-oracle into an
// Õ(α)-approximation of the optimal coverage size with no coverage
// promise. For every guess z of the optimal coverage (a geometric ladder
// up to n) and every boosting repetition it draws a 4-wise hash
// h: U → [z] — by Lemma 3.5 a set of ≥ z elements keeps ≥ z/4 distinct
// pseudo-elements with probability ≥ 3/4 — and feeds the reduced edge
// (S, h(e)) to a fresh oracle whose universe is [z]. A guess qualifies
// when its best repetition reaches z/(4α); the largest qualifying
// estimate wins. Estimates live in reduced-universe scale, which never
// exceeds true coverage, so the result inherits the oracle's
// no-overestimate guarantee.
type Estimator struct {
	M, N, K int
	Alpha   float64
	params  Params

	trivial    bool    // kα ≥ m: n/α is already an α-approximation
	trivialVal float64 // n/α

	guesses []zGuess

	// scratch is the batched ingest path's transient working memory,
	// lazily allocated by ProcessColumns and dropped by Close. It is not
	// sketch state: it holds nothing beyond the current batch and is
	// excluded from SpaceWords (see internal/core/batch.go).
	scratch *BatchScratch

	// Parallel batch engine state (see internal/core/engine.go). par is
	// the target worker count for ProcessColumns (≤1 means sequential; the
	// default). unitList flattens the (guess, repetition) grid once;
	// eng holds the lazily started helper pool, sized min(par, units)-1
	// because the calling goroutine is always a worker too.
	par      int
	unitList []oracleUnit
	eng      *engine
}

// oracleUnit is one independently processable cell of the estimator's
// (guess, repetition) grid: the guess supplies z, the repetition its
// reduction hash and oracle. Units share no mutable state, which is what
// makes the grid safe to fan across workers.
type oracleUnit struct {
	g   *zGuess
	rep *zRep
}

type zGuess struct {
	z    int
	reps []zRep
}

type zRep struct {
	h      *hash.Poly // 4-wise U → [z] (Lemma 3.5)
	oracle CoverageOracle
}

// NewEstimator builds the full estimation pipeline for an m-set,
// n-element instance with budget k and approximation target alpha, using
// factory to instantiate the oracle per guess and repetition.
func NewEstimator(m, n, k int, alpha float64, p Params, factory OracleFactory, rng *rand.Rand) (*Estimator, error) {
	if _, err := Derive(m, n, k, alpha, p); err != nil {
		return nil, err
	}
	est := &Estimator{M: m, N: n, K: k, Alpha: alpha, params: p}
	if trivialCase(m, k, alpha) {
		// Figure 1's first line: with kα ≥ m, picking the best of m/k ≤ α
		// disjoint groups of k sets covers ≥ C(F)·k/m ≥ n/α when every
		// element occurs, so n/α is a valid α-approximate answer.
		est.trivial = true
		est.trivialVal = float64(n) / alpha
		return est, nil
	}
	reps := max(p.Reps, 1)
	for _, z := range guessLadder(n, p) {
		g := zGuess{z: z}
		for r := 0; r < reps; r++ {
			d, err := Derive(m, z, k, alpha, p)
			if err != nil {
				return nil, err
			}
			g.reps = append(g.reps, zRep{
				h:      hash.New4Wise(rng),
				oracle: factory(d, rng),
			})
		}
		est.guesses = append(est.guesses, g)
	}
	return est, nil
}

func trivialCase(m, k int, alpha float64) bool { return float64(k)*alpha >= float64(m) }

// guessLadder returns Figure 1's coverage guesses: a geometric ladder
// from 4 in steps of p's guess base, capped at and ending with n.
func guessLadder(n int, p Params) []int {
	base := p.ZBase
	if base < 1.5 {
		base = 2
	}
	var zs []int
	for z := 4; ; z = scaleGuess(z, base) {
		if z > n {
			z = n
		}
		zs = append(zs, z)
		if z == n {
			return zs
		}
	}
}

// MinStateBytes is a lower bound on the length of the AppendState blob of
// an estimator NewEstimator would build from these arguments. Every
// (guess, repetition) unit writes at least its universe-reduction hash: a
// uvarint(36) length, then the 4-wise polynomial's 4-byte degree and four
// 8-byte coefficients. A decoder checks a blob against it before it
// constructs anything, so a header cannot claim more units than its blob
// holds.
func MinStateBytes(m, n, k int, alpha float64, p Params) int {
	if trivialCase(m, k, alpha) {
		return 0
	}
	return 37 * len(guessLadder(n, p)) * max(p.Reps, 1)
}

func scaleGuess(z int, base float64) int {
	next := int(float64(z) * base)
	if next <= z {
		next = z + 1
	}
	return next
}

// units flattens the (guess, repetition) grid into the engine's
// work-stealing list, lazily and once: the grid is fixed at construction
// (Merge mutates oracles in place, never the guesses slice), so the
// pointers stay valid for the estimator's lifetime.
func (est *Estimator) units() []oracleUnit {
	if est.unitList == nil {
		for gi := range est.guesses {
			g := &est.guesses[gi]
			for ri := range g.reps {
				est.unitList = append(est.unitList, oracleUnit{g, &g.reps[ri]})
			}
		}
	}
	return est.unitList
}

// SetParallelism sets the worker count ProcessColumns fans oracle units
// across. p ≤ 0 selects GOMAXPROCS; 1 is the default (fully sequential,
// no helper goroutines exist). The setting persists until changed: every
// subsequent ProcessColumns uses it. Parallelism is an execution knob, not
// sketch state — it never affects results (bit-identical for every p) or
// the encoded form. Not safe to call concurrently with ProcessColumns.
func (est *Estimator) SetParallelism(p int) {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p == est.par {
		return
	}
	est.par = p
	// Helper count depends on par; Close drops the pool, and the next
	// batch restarts it at the right size.
	est.Close()
}

// Close releases the estimator's working memory: it drops the batch
// scratch and stops the parallel engine's helper goroutines, which frees
// each helper's own scratch. Neither is sketch state, so Close changes no
// result, SpaceWords or encoding, and the estimator remains fully usable
// afterwards (ProcessColumns reallocates the scratch and restarts the
// pool lazily). Long-lived owners call it when an estimator goes idle or
// is retired. Not safe concurrently with ProcessColumns.
func (est *Estimator) Close() {
	est.scratch = nil
	if est.eng != nil {
		est.eng.close()
		est.eng = nil
	}
}

// Estimate is the final answer of the estimation pipeline.
type Estimate struct {
	// Value approximates the optimal coverage size: w.h.p.
	// OPT/Õ(α) ≤ Value ≤ OPT. Zero with Feasible=false means no guess
	// qualified (OPT is below the smallest detectable scale).
	Value    float64
	Feasible bool
	// Z is the winning coverage guess.
	Z int
	// SetIDs backs the estimate for the reporting variant (may be nil).
	SetIDs []uint32
}

// Result inspects all guesses after the pass (Figure 1's final max).
func (est *Estimator) Result() Estimate {
	if est.trivial {
		return Estimate{Value: est.trivialVal, Feasible: true}
	}
	best := Estimate{}
	for gi := range est.guesses {
		g := &est.guesses[gi]
		var estz float64
		var ids []uint32
		for ri := range g.reps {
			r := g.reps[ri].oracle.Result()
			if r.Feasible && r.Value > estz {
				estz = r.Value
				ids = r.SetIDs
			}
		}
		if estz >= float64(g.z)/(4*est.Alpha) && estz > best.Value {
			best = Estimate{Value: estz, Feasible: true, Z: g.z, SetIDs: ids}
		}
	}
	return best
}

// SpaceWords sums every repetition's oracle and reduction hash.
func (est *Estimator) SpaceWords() int {
	w := 4
	for gi := range est.guesses {
		for ri := range est.guesses[gi].reps {
			rep := &est.guesses[gi].reps[ri]
			w += rep.h.SpaceWords() + rep.oracle.SpaceWords()
		}
	}
	return w
}

// Guesses reports the number of coverage guesses (for tests/diagnostics).
func (est *Estimator) Guesses() int { return len(est.guesses) }

// SpaceBreakdown aggregates per-component retained words across all
// guesses and repetitions. Oracles that expose their own breakdown (the
// paper's three-subroutine oracle does) are split by subroutine; others
// are lumped under "oracle". The reduction hashes appear under
// "reduction".
func (est *Estimator) SpaceBreakdown() map[string]int {
	type breakable interface{ SpaceBreakdown() map[string]int }
	out := map[string]int{}
	for gi := range est.guesses {
		for ri := range est.guesses[gi].reps {
			rep := &est.guesses[gi].reps[ri]
			out["reduction"] += rep.h.SpaceWords()
			if br, ok := rep.oracle.(breakable); ok {
				for part, w := range br.SpaceBreakdown() {
					out[part] += w
				}
			} else {
				out["oracle"] += rep.oracle.SpaceWords()
			}
		}
	}
	return out
}
