package sketch

import (
	"fmt"
	"math/rand"

	"streamcover/internal/hash"
)

// L0 is a bottom-k (KMV) distinct-elements sketch. It retains the k
// smallest distinct hash values seen; when fewer than k distinct keys have
// arrived the count is exact, otherwise the estimate is (k-1)·P/v_k where
// v_k is the k-th smallest hash value in [0, P).
//
// With k = Θ(1/ε²) the estimate is within (1±ε) with constant probability,
// which instantiates the (1 ± 1/2)-approximation L0-estimation primitive of
// Theorem 2.12 in Õ(1) space.
//
// The retained values are stored once, in the heap, with no index beside
// them: a full sketch compares a new value with its maximum first, and a
// value that may be new is looked for among the ≤ k retained values (k = 26
// at the estimator's practical ε).
type L0 struct {
	h    *hash.Poly
	k    int
	vals maxHeap // k smallest hash values, max at root
	adds uint64  // total updates fed (diagnostics only)
}

// NewL0 builds an L0 sketch with relative error target eps using a
// Θ(log(mn))-wise hash family for universe sizes m, n.
func NewL0(eps float64, m, n int, rng *rand.Rand) *L0 {
	return NewL0Deg(eps, hash.LogDegree(m, n), rng)
}

// NewL0Deg builds an L0 sketch whose hash is drawn from a deg-wise
// independent family (for callers that trade independence for speed).
func NewL0Deg(eps float64, deg int, rng *rand.Rand) *L0 {
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("sketch: L0 eps %v out of (0,1)", eps))
	}
	k := int(4.0/(eps*eps)) + 1
	return &L0{
		h:    hash.NewPoly(deg, rng),
		k:    k,
		vals: make(maxHeap, 0, k),
	}
}

// Add feeds one key occurrence. Duplicate keys do not change the estimate.
func (s *L0) Add(x uint64) {
	s.adds++
	s.insertValue(s.h.Eval(x))
}

// AddKeys feeds n occurrences whose distinct keys are those of keys, as
// n calls of Add would: the retained values are the k smallest distinct
// hashes, a set no order or repeat changes, and MarshalBinary writes them
// sorted.
func (s *L0) AddKeys(keys []uint64, n int, hv []uint64) []uint64 {
	s.adds += uint64(n)
	hv = s.h.EvalBatch(keys, hv)
	for _, v := range hv {
		s.insertValue(v)
	}
	return hv
}

// Estimate returns the current distinct-count estimate.
func (s *L0) Estimate() float64 {
	if len(s.vals) < s.k {
		return float64(len(s.vals))
	}
	return float64(s.k-1) * float64(hash.Prime) / float64(s.vals[0])
}

// Adds reports how many updates have been fed (for tests/diagnostics).
func (s *L0) Adds() uint64 { return s.adds }

// SpaceWords reports retained state: hash coefficients plus one word per
// stored hash value.
func (s *L0) SpaceWords() int { return s.h.SpaceWords() + len(s.vals) + 2 }

// maxHeap is a binary max-heap of uint64, sifted by hand: container/heap
// takes its values as interfaces, which boxes every pushed uint64.
type maxHeap []uint64

// push adds v.
func (h *maxHeap) push(v uint64) {
	*h = append(*h, v)
	a := *h
	for i := len(a) - 1; i > 0; {
		p := (i - 1) / 2
		if a[p] >= a[i] {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

// down sifts h[i] down to its place.
func (h maxHeap) down(i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && h[r] > h[j] {
			j = r
		}
		if h[i] >= h[j] {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// heapify orders h into a heap.
func (h maxHeap) heapify() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}
