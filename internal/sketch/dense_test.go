package sketch

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// The dense-domain tests run a narrow domain against a wide row, as the
// estimator does (|Q| keys against widths of 24/φ): most cells of every
// row are unreachable.
const (
	denseWidth  = 1201
	denseDomain = 150
)

// densePair is a dense-domain sketch and a wide one drawn from the same
// seed: equal hashes, different storage forms. Every operation is applied
// to both, and they must stay indistinguishable.
type densePair struct{ dense, wide *CountSketch }

func newDensePair(seed int64) densePair {
	return densePair{
		dense: newCountSketch(5, denseWidth, denseDomain, rand.New(rand.NewSource(seed))),
		wide:  newCountSketch(5, denseWidth, 0, rand.New(rand.NewSource(seed))),
	}
}

func (p densePair) add(x uint64, delta int64) {
	p.dense.Add(x, delta)
	p.wide.Add(x, delta)
}

// merge folds a source sketch with the same values into each side.
func (p densePair) merge(t *testing.T, dense, wide *CountSketch) {
	t.Helper()
	if err := p.dense.Merge(dense); err != nil {
		t.Fatal(err)
	}
	if err := p.wide.Merge(wide); err != nil {
		t.Fatal(err)
	}
}

// decoded returns the pair's counters as a checkpoint decodes them: a
// wide sketch with the full matrix.
func (p densePair) decoded(t *testing.T) *CountSketch {
	t.Helper()
	blob, err := p.wide.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dec := new(CountSketch)
	if err := dec.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	return dec
}

// same fails unless both sides encode to the same bytes and estimate F2
// to the same bits.
func (p densePair) same(t *testing.T, step string) {
	t.Helper()
	a, err := p.dense.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.wide.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("%s: dense and wide sketches encode differently", step)
	}
	if x, y := math.Float64bits(p.dense.F2Estimate()), math.Float64bits(p.wide.F2Estimate()); x != y {
		t.Fatalf("%s: F2Estimate bits %x (dense) != %x (wide)", step, x, y)
	}
}

// denseDelta draws an update weight. Half are around 2⁴⁰, so a row's sum
// of squares exceeds 2⁵³ and its float value depends on summation order.
func denseDelta(rng *rand.Rand) int64 {
	if rng.Intn(2) == 0 {
		return rng.Int63n(1<<41) - 1<<40
	}
	return int64(rng.Intn(7)) - 3
}

// TestDenseLayoutEquivalence drives dense-domain sketches and wide twins
// of the same seed through random interleavings of adds, runs of adds and
// estimates over a small set of distinct keys, merges between pairs in
// every storage form, merges of decoded checkpoints, and restores. Rare
// out-of-domain keys widen a dense sketch before its first write, in the
// middle of a key run or after merges. After every step both sides must
// encode to the same bytes and estimate F2 to the same bits, and point
// estimates must agree along the way.
func TestDenseLayoutEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hashSeed := 100 + seed
		key := func() uint64 {
			if rng.Intn(300) == 0 {
				return denseDomain + uint64(rng.Intn(5000))
			}
			return uint64(rng.Intn(denseDomain))
		}
		pairs := make([]densePair, 4)
		for i := range pairs {
			pairs[i] = newDensePair(hashSeed)
		}
		var widened, built int
		for step := 0; step < 400; step++ {
			i := rng.Intn(len(pairs))
			p := pairs[i]
			j := (i + 1 + rng.Intn(len(pairs)-1)) % len(pairs) // another pair
			var op string
			switch rng.Intn(9) {
			case 0, 1:
				op = "add"
				for n := rng.Intn(30); n >= 0; n-- {
					p.add(key(), denseDelta(rng))
				}
			case 2, 3:
				op = "key run"
				seen := map[uint64]bool{}
				var keys []uint64
				for n := 1 + rng.Intn(40); n > 0; n-- {
					if x := key(); !seen[x] {
						seen[x] = true
						keys = append(keys, x)
					}
				}
				for n := rng.Intn(100); n >= 0; n-- {
					x := keys[rng.Intn(len(keys))]
					if rng.Intn(3) == 0 {
						if a, b := p.dense.Estimate(x), p.wide.Estimate(x); a != b {
							t.Fatalf("seed %d step %d: Estimate(%d) %d != %d", seed, step, x, a, b)
						}
						continue
					}
					p.add(x, denseDelta(rng))
				}
			case 4:
				op = "estimate"
				form := p.dense.domain
				for n := 0; n < 20; n++ {
					x := key()
					if rng.Intn(4) == 0 {
						x += denseDomain // reads outside the domain widen nothing
					}
					if a, b := p.dense.Estimate(x), p.wide.Estimate(x); a != b {
						t.Fatalf("seed %d step %d: Estimate(%d) %d != %d", seed, step, x, a, b)
					}
				}
				if p.dense.domain != form {
					t.Fatalf("seed %d step %d: an estimate changed the storage form", seed, step)
				}
			case 5:
				op = "merge"
				p.merge(t, pairs[j].dense, pairs[j].wide)
			case 6:
				op = "cross-form merge"
				p.merge(t, pairs[j].wide, pairs[j].dense)
			case 7:
				op = "merge decoded"
				dec := pairs[j].decoded(t)
				p.merge(t, dec, dec)
			case 8:
				op = "restore"
				dec := p.decoded(t)
				fresh := newDensePair(hashSeed)
				fresh.merge(t, dec, dec)
				pairs[i] = fresh
				p = fresh
			}
			p.same(t, fmt.Sprintf("seed %d step %d (%s)", seed, step, op))
			if p.dense.domain == 0 {
				widened++
			} else if p.dense.lay != nil {
				built++
			}
			if rng.Intn(25) == 0 {
				pairs[i] = newDensePair(hashSeed)
			}
		}
		if widened < 20 || built < 20 {
			t.Errorf("seed %d: %d steps ended widened and %d built and dense; the walk must reach both", seed, widened, built)
		}
	}
}

// densePairIn returns a pair in one storage state: "unbuilt" (no
// writes), "built" (in-domain writes only), "wide" (an out-of-domain
// write after them) or "wide-first" (an out-of-domain write before them).
func densePairIn(state string, vseed int64) densePair {
	p := newDensePair(7)
	rng := rand.New(rand.NewSource(vseed))
	if state == "wide-first" {
		p.add(denseDomain+uint64(rng.Intn(5000)), denseDelta(rng))
	}
	if state != "unbuilt" {
		for i := 0; i < 60; i++ {
			p.add(uint64(rng.Intn(denseDomain)), denseDelta(rng))
		}
	}
	if state == "wide" {
		p.add(denseDomain+uint64(rng.Intn(5000)), denseDelta(rng))
	}
	return p
}

// TestDenseMergeMatrix merges every storage state into every other, and
// decoded checkpoints of each state too. A dense target stays dense
// unless the source holds a cell its domain cannot reach; an unbuilt
// target adopts a built source's layout rather than building its own;
// and the source is never modified.
func TestDenseMergeMatrix(t *testing.T) {
	states := []string{"unbuilt", "built", "wide", "wide-first"}
	for _, dst := range states {
		for _, src := range states {
			for _, decode := range []bool{false, true} {
				name := fmt.Sprintf("%s <- %s (decoded %v)", dst, src, decode)
				d := densePairIn(dst, 1)
				s := densePairIn(src, 2)
				before, _ := s.dense.MarshalBinary()
				if decode {
					dec := s.decoded(t)
					d.merge(t, dec, dec)
				} else {
					d.merge(t, s.dense, s.wide)
				}
				d.same(t, name)
				after, _ := s.dense.MarshalBinary()
				if !bytes.Equal(before, after) {
					t.Fatalf("%s: merge modified its source", name)
				}
				wantDense := (dst == "unbuilt" || dst == "built") && (src == "unbuilt" || src == "built")
				if got := d.dense.domain != 0; got != wantDense {
					t.Errorf("%s: dense after merge = %v, want %v", name, got, wantDense)
				}
				if wantDense && (d.dense.lay == nil) != (dst == "unbuilt" && src == "unbuilt") {
					t.Errorf("%s: built = %v", name, d.dense.lay != nil)
				}
				if dst == "unbuilt" && src == "built" && !decode && d.dense.lay != s.dense.lay {
					t.Errorf("%s: target built its own layout instead of sharing the source's", name)
				}
				// Later writes stay equivalent, and widening the target
				// leaves a shared layout's other owner intact.
				d.add(3, 11)
				d.add(denseDomain+9, -4)
				d.same(t, name+", then written")
				if again, _ := s.dense.MarshalBinary(); !bytes.Equal(before, again) {
					t.Fatalf("%s: writes to the merge target reached the source", name)
				}
			}
		}
	}
}

// TestDenseLayoutReachableCells checks a built layout cell by cell
// against the scalar hashes: it stores exactly the cells some in-domain
// key reaches, in (row, bucket) order, and each key's memo points at its
// own bucket's cell with its own sign. Construction allocates nothing per
// cell.
func TestDenseLayoutReachableCells(t *testing.T) {
	for _, domain := range []int{1, 150, 5000} {
		cs := newCountSketch(5, denseWidth, domain, rand.New(rand.NewSource(int64(domain))))
		if cs.table != nil || cs.lay != nil {
			t.Fatalf("domain %d: construction allocated counters or a layout", domain)
		}
		cs.Add(0, 1)
		reach := make([]map[int]bool, 5)
		index := make([]map[int]int32, 5)
		cells := 0
		for r := 0; r < 5; r++ {
			reach[r] = map[int]bool{}
			for x := 0; x < domain; x++ {
				reach[r][int(cs.bucket[r].Range(uint64(x), denseWidth))] = true
			}
			index[r] = map[int]int32{}
			for b := 0; b < denseWidth; b++ {
				if reach[r][b] {
					index[r][b] = int32(cells)
					cells++
				}
				if got := cs.lay.reachRow(r, denseWidth)[b>>6]&(1<<(b&63)) != 0; got != reach[r][b] {
					t.Fatalf("domain %d row %d bucket %d: bitmap says %v", domain, r, b, got)
				}
			}
		}
		if len(cs.table) != cells || int(cs.lay.start[5]) != cells {
			t.Fatalf("domain %d: %d stored cells (layout %d), %d reachable", domain, len(cs.table), cs.lay.start[5], cells)
		}
		for x := 0; x < domain; x++ {
			c := cs.lay.cell[x]
			for r := 0; r < 5; r++ {
				b := int(cs.bucket[r].Range(uint64(x), denseWidth))
				off, sg := int32(c[r]>>1), 1-2*int(c[r]&1)
				if off != index[r][b] || sg != cs.sign[r].Sign(uint64(x)) {
					t.Fatalf("domain %d key %d row %d: memo (%d, %d), want (%d, %d)",
						domain, x, r, off, sg, index[r][b], cs.sign[r].Sign(uint64(x)))
				}
			}
		}
	}
}

// TestDenseLayoutCellSize pins a key's layout record at 20 bytes. A
// sketch's first write lays out its whole domain, so the record size is
// what a built dense sketch pays per key beyond its counters.
func TestDenseLayoutCellSize(t *testing.T) {
	if n := unsafe.Sizeof(dense5{}); n > 20 {
		t.Fatalf("a layout cell takes %d bytes, want at most 20", n)
	}
}

// TestDenseRestoreUnreachableCellWidens restores a heavy-hitter
// checkpoint whose CountSketch state is a full table carrying a nonzero
// counter in a cell the domain cannot reach. The restored sketch must
// widen to keep that counter and then re-encode the checkpoint byte for
// byte.
func TestDenseRestoreUnreachableCellWidens(t *testing.T) {
	const phi, domain = 0.05, 40
	build := func() *HeavyHitters { return newF2HeavyHitters(phi, domain, rand.New(rand.NewSource(3))) }
	src := build()
	feed := rand.New(rand.NewSource(4))
	for i := 0; i < 3000; i++ {
		src.Add(uint64(feed.Intn(domain)))
	}
	blob, err := src.appendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Plant a counter in the first unreachable cell of row 2 of a twin
	// widened to the full table.
	reach := src.cs.lay.reachRow(2, src.cs.width)
	b := 0
	for reach[b>>6]&(1<<(b&63)) != 0 {
		b++
	}
	wide := build()
	if err := wide.restoreState(blob); err != nil {
		t.Fatal(err)
	}
	wide.cs.widen()
	wide.cs.table[2*wide.cs.width+b] = 17
	planted, err := wide.appendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh := build()
	if err := fresh.restoreState(planted); err != nil {
		t.Fatal(err)
	}
	if fresh.cs.domain != 0 {
		t.Fatal("restore kept the dense form with an unreachable nonzero cell")
	}
	again, err := fresh.appendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(planted, again) {
		t.Fatal("widened restore re-encodes differently")
	}
	// The untouched checkpoint restores dense and re-encodes too.
	clean := build()
	if err := clean.restoreState(blob); err != nil {
		t.Fatal(err)
	}
	if clean.cs.domain == 0 {
		t.Fatal("a checkpoint with only reachable cells restored wide")
	}
	if again, _ := clean.appendState(nil); !bytes.Equal(blob, again) {
		t.Fatal("dense restore re-encodes differently")
	}
}

// TestCloneSharesLayout merges a fed battery into a fresh same-seed one,
// as Estimator.Clone does: every built level must share its source's
// layout and copy only the compact counters, and levels that never saw a
// key stay unbuilt on both sides.
func TestCloneSharesLayout(t *testing.T) {
	src := loadedContrib(21, 3000)
	clone := NewF2Contributing(0.1, 64, 1<<12, DefaultContribConfig(), rand.New(rand.NewSource(21)))
	if err := clone.Merge(src); err != nil {
		t.Fatal(err)
	}
	built := 0
	for i := range src.levels {
		a, b := src.levels[i].hh.cs, clone.levels[i].hh.cs
		if a.lay != b.lay {
			t.Errorf("level %d: clone layout %p, source %p", i, b.lay, a.lay)
		}
		if a.lay != nil {
			built++
			if &a.table[0] == &b.table[0] {
				t.Errorf("level %d: clone shares the source's counters", i)
			}
		}
	}
	if built == 0 {
		t.Fatal("no level was built")
	}
}

// TestDecodersBoundAllocation feeds each decoder a tiny blob whose header
// claims a huge structure. A decoder must check the claim against the
// blob before allocating for it: each blob may cost at most 1 MB. The
// state blobs decode into a construction built beforehand; those must
// also fail.
func TestDecodersBoundAllocation(t *testing.T) {
	poly := []byte{12, 0, 0, 0, 1, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0} // blob: degree-1 poly, coefficient 5
	le32 := func(v uint32) []byte { return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)} }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	// A fed heavy-hitter sketch's v2 state: 20 header bytes, the
	// CountSketch state as a 4-byte-length blob, then the candidates.
	const domain = 1 << 12
	fresh := func() *HeavyHitters { return newF2HeavyHitters(0.05, domain, rand.New(rand.NewSource(5))) }
	src := fresh()
	for x := uint64(0); x < 3000; x++ {
		src.Add(x * 7 % domain)
	}
	hhState, err := src.appendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	csState, err := src.cs.appendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	candidates := hhState[24+len(csState):]
	shortRow := cat(hhState[:20], le32(uint32(len(csState)-8)), csState[:len(csState)-8], candidates)
	cutRow := hhState[:24+len(csState)/2]

	for _, tc := range []struct {
		name     string
		data     []byte
		decode   func([]byte) error
		mustFail bool
	}{
		{"CountSketch 1x2^28", cat(le32(1), le32(1<<28)),
			func(b []byte) error { return new(CountSketch).UnmarshalBinary(b) }, false},
		{"L0 k=2^24", cat(poly, le32(1<<24), le32(1), make([]byte, 8), le32(9), le32(0)),
			func(b []byte) error { return new(L0).UnmarshalBinary(b) }, false},
		{"v2 compact row one cell short of the layout", shortRow, fresh().restoreState, true},
		{"v2 row cut short", cutRow, fresh().restoreState, true},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := tc.decode(tc.data)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("%s (%d bytes): decoding allocated %d MB (err %v)", tc.name, len(tc.data), n>>20, err)
		}
		if tc.mustFail && err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
}
