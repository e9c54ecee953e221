package hash

import "math/bits"

// Batched evaluation and ID interning for the hot ingest path.
//
// The estimator's per-edge cost is dominated by re-evaluating
// Θ(log(mn))-degree polynomials whose inputs are only the set ID or only
// the element ID of the arriving edge. Within one batch of edges those
// inputs repeat heavily (a batch touches far fewer distinct sets than
// edges, and small reduced universes collapse the element column), so the
// batch path dedups each ID column once with an Interner and evaluates
// every polynomial once per distinct input instead of once per edge.
//
// Every function here is bit-for-bit equivalent to calling the scalar
// counterpart (Eval, Range, Bernoulli) element-wise: same field
// reduction, same thresholds, same outputs. Callers rely on that to keep
// the batched estimator identical to the sequential one.

// eval8 evaluates the polynomial at eight points with independent
// accumulator lanes, writing the hashes into out. The outputs are
// bit-identical to eight Eval calls; the kernel differs from the scalar
// loop in two ways that change only speed:
//
//   - Eight lanes give the CPU eight independent multiply chains to
//     overlap. Horner evaluation is a serial dependency chain per input,
//     so the scalar loop stalls on multiply latency while the unrolled
//     form approaches multiply throughput.
//
//   - Accumulators are kept lazily reduced. mulModLazy returns a
//     representative in [0, 2^61+3] (skipping mulMod's canonicalizing
//     compare-subtract) and the Horner "+ coef[c]" is a plain add
//     (skipping addMod's), so each accumulator stays congruent to the
//     scalar value mod Prime while remaining below 2^62+2 — within
//     mulModLazy's input bound. One canonicalizing fold per lane at the
//     end lands on the unique representative in [0, Prime), which is the
//     exact value the always-canonical scalar recurrence carries.
//
// The array-pointer parameters make the eight loads and stores
// bounds-check free; callers convert their slices with (*[8]uint64)(s).
func eval8(coef []uint64, x, out *[8]uint64) {
	top := len(coef) - 1
	if top == 0 {
		// Degree-1 family: Eval returns coef[0] untouched; bypass the
		// canonicalization so we do exactly the same.
		for i := range out {
			out[i] = coef[0]
		}
		return
	}
	x0, x1, x2, x3 := reduceInput(x[0]), reduceInput(x[1]), reduceInput(x[2]), reduceInput(x[3])
	x4, x5, x6, x7 := reduceInput(x[4]), reduceInput(x[5]), reduceInput(x[6]), reduceInput(x[7])
	if (x0|x1|x2|x3|x4|x5|x6|x7)>>61 != 0 {
		// Keys around 2^62 and above survive Eval's partial input
		// reduction with bits ≥ 2^61 still set, outside mulModLazy's
		// input bound. The hot path never produces them (IDs are widened
		// uint32s), so blocks containing one just mirror the scalar ops.
		for i, v := range x {
			out[i] = evalOne(coef, v)
		}
		return
	}
	a0 := coef[top]
	a1, a2, a3 := a0, a0, a0
	a4, a5, a6, a7 := a0, a0, a0, a0
	for c := top - 1; c >= 0; c-- {
		k := coef[c]
		a0 = mulModLazy(a0, x0) + k
		a1 = mulModLazy(a1, x1) + k
		a2 = mulModLazy(a2, x2) + k
		a3 = mulModLazy(a3, x3) + k
		a4 = mulModLazy(a4, x4) + k
		a5 = mulModLazy(a5, x5) + k
		a6 = mulModLazy(a6, x6) + k
		a7 = mulModLazy(a7, x7) + k
	}
	out[0], out[1], out[2], out[3] = canon(a0), canon(a1), canon(a2), canon(a3)
	out[4], out[5], out[6], out[7] = canon(a4), canon(a5), canon(a6), canon(a7)
}

// mulModLazy returns a representative of a·b mod Prime in [0, 2^61+3],
// valid for a < 2^62+4 and b < 2^61. It is mulMod without the final
// compare-subtract; the wider input bound holds because hi < 2^59+1 keeps
// (hi<<3)|(lo>>61) + (lo&Prime) below 2^63, and one fold of that brings
// the result under 2^61+4.
func mulModLazy(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	r := (hi << 3) | (lo >> 61)
	r += lo & Prime
	return (r >> 61) + (r & Prime)
}

// canon folds a lazily-reduced accumulator (< 2^62+2) to the unique
// representative in [0, Prime).
func canon(a uint64) uint64 {
	r := (a >> 61) + (a & Prime)
	if r >= Prime {
		r -= Prime
	}
	return r
}

// reduceInput applies the same partial input reduction as the top of
// Eval: keys below ~3·Prime land in [0, Prime), larger ones keep their
// residue class but stay wide (eval8 detects and sidesteps those).
func reduceInput(x uint64) uint64 {
	if x >= Prime {
		x -= Prime
		if x >= Prime {
			x -= Prime
		}
	}
	return x
}

// evalOne is the scalar Horner recurrence, operation for operation the
// body of Eval; the 8-way batch tails and fallbacks route through it.
func evalOne(coef []uint64, x uint64) uint64 {
	x = reduceInput(x)
	acc := coef[len(coef)-1]
	for c := len(coef) - 2; c >= 0; c-- {
		acc = addMod(mulMod(acc, x), coef[c])
	}
	return acc
}

// EvalBatch evaluates the polynomial on every input, writing hashes into
// dst (grown as needed) and returning it. dst[i] == p.Eval(xs[i]) for all
// i; the two differ only in speed (full blocks of eight go through the
// unrolled eval8 kernel).
func (p *Poly) EvalBatch(xs []uint64, dst []uint64) []uint64 {
	dst = growU64(dst, len(xs))
	coef := p.coef
	i := 0
	for ; i+8 <= len(xs); i += 8 {
		eval8(coef, (*[8]uint64)(xs[i:]), (*[8]uint64)(dst[i:]))
	}
	for ; i < len(xs); i++ {
		dst[i] = evalOne(coef, xs[i])
	}
	return dst
}

// RangeBatch maps every input's hash to [0, n) with the same multiply-high
// trick as Range. dst[i] == p.Range(xs[i], n). n must be positive.
func (p *Poly) RangeBatch(xs []uint64, n uint64, dst []uint64) []uint64 {
	if n == 0 {
		panic("hash: RangeBatch with n == 0")
	}
	dst = p.EvalBatch(xs, dst)
	for i, v := range dst {
		hi, _ := bits.Mul64(v<<3, n)
		dst[i] = hi
	}
	return dst
}

// BernoulliBatch writes each input's sampling decision at rate prob into
// dst (grown as needed). dst[i] == p.Bernoulli(xs[i], prob), including the
// prob ≤ 0 and prob ≥ 1 short-circuits that skip hashing entirely.
func (p *Poly) BernoulliBatch(xs []uint64, prob float64, dst []bool) []bool {
	dst = growBool(dst, len(xs))
	if prob <= 0 {
		for i := range dst {
			dst[i] = false
		}
		return dst
	}
	if prob >= 1 {
		for i := range dst {
			dst[i] = true
		}
		return dst
	}
	threshold := uint64(prob * float64(Prime))
	coef := p.coef
	i := 0
	var hv [8]uint64
	for ; i+8 <= len(xs); i += 8 {
		eval8(coef, (*[8]uint64)(xs[i:]), &hv)
		d := (*[8]bool)(dst[i:])
		for j, v := range hv {
			d[j] = v < threshold
		}
	}
	for ; i < len(xs); i++ {
		dst[i] = evalOne(coef, xs[i]) < threshold
	}
	return dst
}

// Interner dedups one ID column of an edge batch: Add records each
// occurrence and returns a dense index in first-appearance order, so an
// ID-keyed hash decision can be computed once per distinct ID (over Keys)
// and looked up per occurrence (via Pos). The dedup table is open-addressed
// (linear probing over a power-of-two table storing index+1, so Reset is a
// single memclr) rather than a Go map — interning runs once per edge per
// chunk on the ingest hot path. It is reusable working memory — Reset keeps
// the allocations — and is NOT sketch state: it holds no information beyond
// the current batch, so it is excluded from every SpaceWords accounting
// (see the space-accounting contract in internal/sketch).
type Interner struct {
	tab  []int32 // slot -> index into Keys + 1; 0 = empty
	mask uint64
	// Keys holds the distinct IDs in first-appearance order, widened to
	// uint64 so they can feed EvalBatch directly.
	Keys []uint64
	// Pos holds, for every Add in order, the index of that ID in Keys.
	Pos []int32
}

// Reset clears the interner for a new batch, retaining capacity.
func (it *Interner) Reset() {
	if it.tab == nil {
		it.tab = make([]int32, 1024)
		it.mask = 1023
	} else {
		clear(it.tab)
	}
	it.Keys = it.Keys[:0]
	it.Pos = it.Pos[:0]
}

// internMix spreads the 32-bit ID over the table (Fibonacci hashing on the
// upper bits of a 64-bit product).
func internMix(id uint32) uint64 {
	return (uint64(id) * 0x9e3779b97f4a7c15) >> 32
}

// Add records one occurrence of id and returns its dense index.
func (it *Interner) Add(id uint32) int32 {
	if uint64(len(it.Keys))*2 >= uint64(len(it.tab)) {
		it.grow()
	}
	i := internMix(id) & it.mask
	for {
		v := it.tab[i]
		if v == 0 {
			k := int32(len(it.Keys))
			it.tab[i] = k + 1
			it.Keys = append(it.Keys, uint64(id))
			it.Pos = append(it.Pos, k)
			return k
		}
		if uint32(it.Keys[v-1]) == id {
			it.Pos = append(it.Pos, v-1)
			return v - 1
		}
		i = (i + 1) & it.mask
	}
}

// grow doubles the table and reinserts the distinct keys; Keys order (and
// therefore every dense index already handed out) is unchanged.
func (it *Interner) grow() {
	size := uint64(len(it.tab)) * 2
	it.tab = make([]int32, size)
	it.mask = size - 1
	for k, key := range it.Keys {
		i := internMix(uint32(key)) & it.mask
		for it.tab[i] != 0 {
			i = (i + 1) & it.mask
		}
		it.tab[i] = int32(k) + 1
	}
}

// growU64 returns a slice of length n reusing dst's storage when possible.
func growU64(dst []uint64, n int) []uint64 {
	if cap(dst) < n {
		return make([]uint64, n)
	}
	return dst[:n]
}

// growBool returns a slice of length n reusing dst's storage when possible.
func growBool(dst []bool, n int) []bool {
	if cap(dst) < n {
		return make([]bool, n)
	}
	return dst[:n]
}
