package sketch

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"streamcover/internal/hash"
)

// HLL is a HyperLogLog distinct-elements sketch: 2^p registers, each
// holding the maximum leading-zero rank seen among keys routed to it.
// The paper's Theorem 2.12 cites several L0 algorithms [5, 11, 13, 30,
// 31]; the repository ships two implementations with different
// space/accuracy profiles — the bottom-k L0 (exact under capacity,
// 1/√k error above) and this one (≈1.04/√(2^p) error, 2^p registers
// packed at one word per 8). Experiment E20 compares them; the core
// algorithm can run on either via the DistinctCounter interface.
type HLL struct {
	p    uint8 // precision: 2^p registers
	regs []uint8
	h    *hash.Poly
	adds uint64
}

// DistinctCounter is the streaming distinct-count contract both L0
// implementations satisfy. AddKeys is the batch form of Add: it feeds n
// occurrences whose distinct keys are those in keys, which may repeat,
// and leaves the state n calls of Add would. Neither implementation's
// state depends on the order or multiplicity of its keys, only on their
// set and on the number of occurrences (Adds), so one hash evaluation
// per distinct key of a batch does. hv is scratch for the hashes,
// returned grown.
type DistinctCounter interface {
	Add(x uint64)
	AddKeys(keys []uint64, n int, hv []uint64) []uint64
	Estimate() float64
	SpaceWords() int
}

var (
	_ DistinctCounter = (*L0)(nil)
	_ DistinctCounter = (*HLL)(nil)
)

// NewHLL builds a HyperLogLog with precision p ∈ [4, 18].
func NewHLL(p uint8, rng *rand.Rand) *HLL {
	if p < 4 || p > 18 {
		panic(fmt.Sprintf("sketch: HLL precision %d out of [4,18]", p))
	}
	return &HLL{
		p:    p,
		regs: make([]uint8, 1<<p),
		h:    hash.NewLogWise(1<<20, 1<<20, rng),
	}
}

// Add feeds one key occurrence; duplicates do not change the estimate.
func (s *HLL) Add(x uint64) {
	s.adds++
	s.insertHash(s.h.Eval(x))
}

// insertHash routes a key's hash to its register and raises it to the
// hash's rank.
func (s *HLL) insertHash(v uint64) {
	// Spread the 61-bit field value to 64 bits by multiplying into the
	// high bits, then split register index / rank.
	hv := v << 3
	idx := hv >> (64 - s.p)
	rest := hv << s.p
	rank := uint8(bits.LeadingZeros64(rest|1)) + 1
	if rank > s.regs[idx] {
		s.regs[idx] = rank
	}
}

// AddKeys feeds n occurrences whose distinct keys are those of keys, as
// n calls of Add would: a register keeps the maximum rank routed to it,
// which no order or repeat changes.
func (s *HLL) AddKeys(keys []uint64, n int, hv []uint64) []uint64 {
	s.adds += uint64(n)
	hv = s.h.EvalBatch(keys, hv)
	for _, v := range hv {
		s.insertHash(v)
	}
	return hv
}

// Estimate returns the distinct-count estimate with the standard
// small-range (linear counting) correction.
func (s *HLL) Estimate() float64 {
	m := float64(int(1) << s.p)
	var sum float64
	zeros := 0
	for _, r := range s.regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	est := alpha * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		est = m * math.Log(m/float64(zeros)) // linear counting
	}
	return est
}

// Adds reports how many updates were fed (diagnostics).
func (s *HLL) Adds() uint64 { return s.adds }

// SpaceWords packs eight 8-bit registers per 64-bit word, plus the hash.
func (s *HLL) SpaceWords() int {
	return (len(s.regs)+7)/8 + s.h.SpaceWords() + 1
}
