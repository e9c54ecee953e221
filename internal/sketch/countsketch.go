package sketch

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"streamcover/internal/hash"
)

// CountSketch is the Charikar–Chen–Farach-Colton sketch: depth rows of
// width counters; each update x with weight Δ adds sign_r(x)·Δ to bucket
// bucket_r(x) in every row r. Point estimates take the median across rows,
// giving |est(x) − a[x]| ≤ √(F2(a)/width) per row with probability 2/3 and
// exponentially better after the median.
//
// The counters are stored in one of two forms. A dense-domain sketch (see
// newCountSketch), the form every estimator battery uses, holds only the
// cells some key of its domain can reach, in (row, bucket) order, through
// a shared denseLayout that memoizes each key's cells and signs, and
// nothing at all before its first write. A wide sketch, built without a
// domain or widened by a key outside it, holds the full flat matrix (row
// r occupies table[r*width : (r+1)*width]) and hashes every key it
// touches. Both forms encode, estimate and merge to the same values; the
// paper's depth×width accounting (SpaceWords) covers either.
type CountSketch struct {
	depth, width int
	table        []int64      // wide: flat depth×width, row-major; dense: reachable cells; nil while unbuilt
	bucket       []*hash.Poly // 2-wise bucket hash per row
	sign         []*hash.Poly // 4-wise sign hash per row

	// domain > 0 makes this a dense-domain sketch over keys [0, domain);
	// lay is its layout, nil until the first write (an unbuilt sketch,
	// all counters zero). A write of a key outside the domain widens the
	// sketch for good: domain drops to 0 and table becomes the full matrix.
	domain uint64
	lay    *denseLayout
}

// denseLayout maps a dense domain onto the cells its keys reach. It is a
// pure function of the sketch's hashes, width and domain, so it is built
// once, never written afterwards, and shared by every sketch that merges
// from the one that built it (a query's clone shares its source's). It
// is a reconstructible cache of hash evaluations: excluded from
// SpaceWords, never serialized.
type denseLayout struct {
	cell  []dense5 // per in-domain key: compact offsets and signs, one per row
	reach []uint64 // per row, a bitmap of the buckets some key reaches
	start [6]int32 // compact index of row r's first cell; start[5] is the cell count
}

// dense5 holds one in-domain key's five cells, one per row, in 20 bytes:
// each entry is the compact cell index shifted left by one, with the sign
// in bit 0 (1 for −1: Poly.Sign maps an odd hash to −1). Compact indices
// stay below 2³⁰, so the shifted index fits. The fixed-size array is
// indexed without bounds checks.
type dense5 [5]uint32

// signed applies the sign in bit 0 of entry v to x. It does not branch:
// a branch on the sign measured slower on the dense add path.
func signed(v uint32, x int64) int64 {
	m := -int64(v & 1)
	return (x ^ m) - m
}

// maxDenseDomain bounds a dense domain so the layout stays under the
// 2³⁰-cell limit the flat matrix has.
const maxDenseDomain = 1 << 30 / 5

// NewCountSketch builds a sketch with the given depth (number of
// independent rows, odd is best for medians) and width (counters per row).
func NewCountSketch(depth, width int, rng *rand.Rand) *CountSketch {
	return newCountSketch(depth, width, 0, rng)
}

// newCountSketch builds a sketch for keys that (almost) all lie in
// [0, domain). Such a dense-domain sketch stores only the counters those
// keys can reach, allocates them at its first write, and computes each
// key's cell offsets and signs once over its lifetime, all at that write;
// results are bit-identical to a wide sketch's because offsets and signs
// are pure functions of the key. A key outside the domain widens the
// sketch back to the full matrix. domain 0 builds a wide sketch, and so
// does a depth other than 5 (the estimator's only depth) or a domain past
// maxDenseDomain.
func newCountSketch(depth, width, domain int, rng *rand.Rand) *CountSketch {
	if depth < 1 || width < 1 || depth*width > 1<<30 {
		panic(fmt.Sprintf("sketch: CountSketch depth %d width %d", depth, width))
	}
	cs := &CountSketch{
		depth:  depth,
		width:  width,
		bucket: make([]*hash.Poly, depth),
		sign:   make([]*hash.Poly, depth),
	}
	for r := 0; r < depth; r++ {
		cs.bucket[r] = hash.NewPairwise(rng)
		cs.sign[r] = hash.New4Wise(rng)
	}
	if depth == 5 && domain > 0 && domain <= maxDenseDomain {
		cs.domain = uint64(domain)
	} else {
		cs.table = make([]int64, depth*width)
	}
	return cs
}

// build lays the domain out and allocates the compact counters, all zero.
func (cs *CountSketch) build() {
	cs.lay = cs.layout()
	cs.table = make([]int64, cs.lay.start[5])
}

// layout computes the domain's layout: every in-domain key is hashed once
// per row through the batch kernels, its buckets mark the row bitmaps, and
// the per-key offsets are then rewritten from buckets to compact indices,
// the bucket's rank among its row's reachable buckets.
func (cs *CountSketch) layout() *denseLayout {
	n := int(cs.domain)
	words := (cs.width + 63) >> 6
	lay := &denseLayout{cell: make([]dense5, n), reach: make([]uint64, 5*words)}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
	}
	var hv []uint64
	for r := 0; r < 5; r++ {
		row := lay.reach[r*words : (r+1)*words]
		hv = cs.bucket[r].RangeBatch(keys, uint64(cs.width), hv)
		for x, b := range hv {
			row[b>>6] |= 1 << (b & 63)
			lay.cell[x][r] = uint32(b) << 1
		}
		hv = cs.sign[r].EvalBatch(keys, hv)
		for x, v := range hv {
			lay.cell[x][r] |= uint32(v & 1)
		}
	}
	rank := make([]int32, words)
	var k int32
	for r := 0; r < 5; r++ {
		lay.start[r] = k
		row := lay.reach[r*words : (r+1)*words]
		for w, v := range row {
			rank[w] = k
			k += int32(bits.OnesCount64(v))
		}
		for x := range lay.cell {
			v := lay.cell[x][r]
			b := v >> 1
			k := rank[b>>6] + int32(bits.OnesCount64(row[b>>6]&(1<<(b&63)-1)))
			lay.cell[x][r] = uint32(k)<<1 | v&1
		}
	}
	lay.start[5] = k
	return lay
}

// reachRow is row r's bitmap of reachable buckets.
func (lay *denseLayout) reachRow(r, width int) []uint64 {
	words := (width + 63) >> 6
	return lay.reach[r*words : (r+1)*words]
}

// storedRow returns row r's stored counters in bucket order: the whole
// row of a wide sketch, the reachable cells of a dense one (none while
// unbuilt). Every cell it leaves out is zero.
func (cs *CountSketch) storedRow(r int) []int64 {
	if cs.domain == 0 {
		return cs.table[r*cs.width : (r+1)*cs.width]
	}
	if cs.lay == nil {
		return nil
	}
	return cs.table[cs.lay.start[r]:cs.lay.start[r+1]]
}

// expandRow writes row r at full width into dst (len width).
func (cs *CountSketch) expandRow(r int, dst []int64) {
	stored := cs.storedRow(r)
	if cs.domain == 0 {
		copy(dst, stored)
		return
	}
	clear(dst)
	if cs.lay == nil {
		return
	}
	k := 0
	for w, v := range cs.lay.reachRow(r, cs.width) {
		for ; v != 0; v &= v - 1 {
			dst[w<<6+bits.TrailingZeros64(v)] = stored[k]
			k++
		}
	}
}

// full returns the counters as the flat depth×width matrix: the table
// itself when wide, an expanded copy when dense, nil (all zero) while
// unbuilt.
func (cs *CountSketch) full() []int64 {
	if cs.domain == 0 {
		return cs.table
	}
	if cs.lay == nil {
		return nil
	}
	out := make([]int64, cs.depth*cs.width)
	for r := 0; r < cs.depth; r++ {
		cs.expandRow(r, out[r*cs.width:(r+1)*cs.width])
	}
	return out
}

// widen turns a dense sketch into a wide one holding the same counters.
// The shared layout is dropped, not modified.
func (cs *CountSketch) widen() {
	t := cs.full()
	if t == nil {
		t = make([]int64, cs.depth*cs.width)
	}
	cs.table, cs.lay, cs.domain = t, nil, 0
}

// addFull adds a flat depth×width counter matrix (nil for all zero) into
// cs. A dense sketch stays dense when every nonzero cell of full is one
// its domain reaches, building its layout first if it has none, and
// widens otherwise.
func (cs *CountSketch) addFull(full []int64) {
	if cs.domain != 0 {
		if allZero(full) {
			return
		}
		if cs.lay == nil {
			cs.build()
		}
		if cs.reachesAll(full) {
			k := 0
			for r := 0; r < cs.depth; r++ {
				row := full[r*cs.width : (r+1)*cs.width]
				for w, v := range cs.lay.reachRow(r, cs.width) {
					for ; v != 0; v &= v - 1 {
						cs.table[k] += row[w<<6+bits.TrailingZeros64(v)]
						k++
					}
				}
			}
			return
		}
		cs.widen()
	}
	for i, c := range full {
		cs.table[i] += c
	}
}

// reachesAll reports whether every nonzero cell of full is reachable in
// the built layout.
func (cs *CountSketch) reachesAll(full []int64) bool {
	for r := 0; r < cs.depth; r++ {
		reach := cs.lay.reachRow(r, cs.width)
		for b, c := range full[r*cs.width : (r+1)*cs.width] {
			if c != 0 && reach[b>>6]&(1<<(b&63)) == 0 {
				return false
			}
		}
	}
	return true
}

func allZero(t []int64) bool {
	for _, c := range t {
		if c != 0 {
			return false
		}
	}
	return true
}

// Add applies update a[x] += delta.
func (cs *CountSketch) Add(x uint64, delta int64) {
	if x < cs.domain {
		cs.addDense(x, delta)
		return
	}
	if cs.domain != 0 {
		cs.widen()
	}
	base := 0
	for r := 0; r < cs.depth; r++ {
		b := cs.bucket[r].Range(x, uint64(cs.width))
		cs.table[base+int(b)] += int64(cs.sign[r].Sign(x)) * delta
		base += cs.width
	}
}

// flush adds each deferred delta pending[ki], ki in touched, to key
// keys[ki] and re-zeroes it: the heavy-hitter batch path's counter
// kernel. An in-domain key of a built dense sketch goes straight to its
// cells, written out here because a call per key (addDense does not
// inline) measured slower on the refresh path; any other key goes
// through Add, which builds the layout or widens the sketch.
func (cs *CountSketch) flush(keys []uint64, touched []int32, pending []int64) {
	lay, t := cs.lay, cs.table
	for _, ki := range touched {
		x, d := keys[ki], pending[ki]
		pending[ki] = 0
		if x < cs.domain && lay != nil {
			c := &lay.cell[x]
			t[c[0]>>1] += signed(c[0], d)
			t[c[1]>>1] += signed(c[1], d)
			t[c[2]>>1] += signed(c[2], d)
			t[c[3]>>1] += signed(c[3], d)
			t[c[4]>>1] += signed(c[4], d)
			continue
		}
		cs.Add(x, d)
		lay, t = cs.lay, cs.table
	}
}

// addDense applies a[x] += delta for an in-domain key of a dense sketch,
// building the layout on the sketch's first write.
func (cs *CountSketch) addDense(x uint64, delta int64) {
	if cs.lay == nil {
		cs.build()
	}
	c := &cs.lay.cell[x]
	t := cs.table
	t[c[0]>>1] += signed(c[0], delta)
	t[c[1]>>1] += signed(c[1], delta)
	t[c[2]>>1] += signed(c[2], delta)
	t[c[3]>>1] += signed(c[3], delta)
	t[c[4]>>1] += signed(c[4], delta)
}

// median5 selects the median of five values with a min/max network,
// which compiles without branches: a comparison network's branches
// mispredict on noise, and every estimate ends here (depth is 5
// throughout the estimator). f and g are the two middle values of the
// first four, in either order, so the median of all five is the median
// of e, f and g, which the last line takes.
func median5(a, b, c, d, e int64) int64 {
	f := max(min(a, b), min(c, d))
	g := min(max(a, b), max(c, d))
	return max(min(e, f), min(max(e, f), g))
}

// Estimate returns the median-of-rows point estimate of a[x]. It sits on
// hot paths (every heavy-hitter Report, and a wide sketch's refreshes),
// so depth-5 sketches go through median5 and other depths through a
// stack-buffer insertion sort — never sort.Slice's reflection or an
// allocation. It never modifies the sketch.
func (cs *CountSketch) Estimate(x uint64) int64 {
	if x < cs.domain && cs.lay != nil {
		c := &cs.lay.cell[x]
		t := cs.table
		return median5(
			signed(c[0], t[c[0]>>1]),
			signed(c[1], t[c[1]>>1]),
			signed(c[2], t[c[2]>>1]),
			signed(c[3], t[c[3]>>1]),
			signed(c[4], t[c[4]>>1]),
		)
	}
	if cs.domain != 0 {
		return cs.estimateOutside(x)
	}
	if cs.depth == 5 {
		w := uint64(cs.width)
		wd := cs.width
		t := cs.table
		e0 := int64(cs.sign[0].Sign(x)) * t[cs.bucket[0].Range(x, w)]
		e1 := int64(cs.sign[1].Sign(x)) * t[wd+int(cs.bucket[1].Range(x, w))]
		e2 := int64(cs.sign[2].Sign(x)) * t[2*wd+int(cs.bucket[2].Range(x, w))]
		e3 := int64(cs.sign[3].Sign(x)) * t[3*wd+int(cs.bucket[3].Range(x, w))]
		e4 := int64(cs.sign[4].Sign(x)) * t[4*wd+int(cs.bucket[4].Range(x, w))]
		return median5(e0, e1, e2, e3, e4)
	}
	var buf [15]int64
	ests := buf[:0]
	if cs.depth > len(buf) {
		ests = make([]int64, 0, cs.depth)
	}
	base := 0
	for r := 0; r < cs.depth; r++ {
		b := cs.bucket[r].Range(x, uint64(cs.width))
		e := int64(cs.sign[r].Sign(x)) * cs.table[base+int(b)]
		base += cs.width
		i := len(ests)
		ests = append(ests, e)
		for ; i > 0 && ests[i-1] > e; i-- {
			ests[i] = ests[i-1]
		}
		ests[i] = e
	}
	return ests[cs.depth/2]
}

// estimateOutside is Estimate on a dense sketch that is unbuilt or asked
// about a key outside its domain: the key is hashed, and a bucket the
// domain never reaches reads as zero. A reachable bucket's compact index
// is its rank in the row bitmap.
func (cs *CountSketch) estimateOutside(x uint64) int64 {
	if cs.lay == nil {
		return 0
	}
	var e [5]int64
	for r := range e {
		b := cs.bucket[r].Range(x, uint64(cs.width))
		reach := cs.lay.reachRow(r, cs.width)
		bit := uint64(1) << (b & 63)
		if reach[b>>6]&bit == 0 {
			continue
		}
		k := int(cs.lay.start[r]) + bits.OnesCount64(reach[b>>6]&(bit-1))
		for _, v := range reach[:b>>6] {
			k += bits.OnesCount64(v)
		}
		e[r] = int64(cs.sign[r].Sign(x)) * cs.table[k]
	}
	return median5(e[0], e[1], e[2], e[3], e[4])
}

// F2Estimate estimates F2(a) as the median across rows of the row's sum of
// squared counters (each row is an AMS-style estimator when width ≥ 1; the
// sum of squared bucket totals is an unbiased F2 estimate under 4-wise
// signs). Each row sums its stored cells in bucket order; a cell a dense
// sketch does not store would add an exact +0.0, so every form sums to
// the same bits.
func (cs *CountSketch) F2Estimate() float64 {
	sums := make([]float64, cs.depth)
	for r := 0; r < cs.depth; r++ {
		var s float64
		for _, c := range cs.storedRow(r) {
			f := float64(c)
			s += f * f
		}
		sums[r] = s
	}
	sort.Float64s(sums)
	if cs.depth%2 == 1 {
		return sums[cs.depth/2]
	}
	return (sums[cs.depth/2-1] + sums[cs.depth/2]) / 2
}

// RowMaxAbs returns, for each row, the largest absolute counter value — a
// per-row proxy for L∞ of the sketched vector, used by the set-disjointness
// distinguisher (Section 5's L∞-via-L2 trick).
func (cs *CountSketch) RowMaxAbs() []int64 {
	out := make([]int64, cs.depth)
	for r := 0; r < cs.depth; r++ {
		var m int64
		for _, c := range cs.storedRow(r) {
			if c < 0 {
				c = -c
			}
			if c > m {
				m = c
			}
		}
		out[r] = m
	}
	return out
}

// Depth and Width report the sketch dimensions.
func (cs *CountSketch) Depth() int { return cs.depth }
func (cs *CountSketch) Width() int { return cs.width }

// SpaceWords counts counters plus hash coefficients: the paper's
// depth×width table, whichever form stores it.
func (cs *CountSketch) SpaceWords() int {
	words := cs.depth*cs.width + 2
	for r := 0; r < cs.depth; r++ {
		words += cs.bucket[r].SpaceWords() + cs.sign[r].SpaceWords()
	}
	return words
}
