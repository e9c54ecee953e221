package sketch

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

// loadedHH builds a heavy-hitter sketch from seed and feeds it a skewed
// stream so both the CountSketch tables and the candidate set are busy.
func loadedHH(seed int64, n int) *HeavyHitters {
	rng := rand.New(rand.NewSource(seed))
	hh := NewF2HeavyHitters(0.05, rng)
	feed := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < n; i++ {
		hh.Add(uint64(feed.Intn(40)) * 7)
	}
	return hh
}

func sameReport(t *testing.T, a, b []WeightedItem) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("report lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("report[%d] differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestHeavyHittersSnapshotRoundTrip(t *testing.T) {
	orig := loadedHH(7, 5000)
	blob, err := orig.appendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Restore into a fresh same-seed (hence same-hash) construction.
	fresh := NewF2HeavyHitters(0.05, rand.New(rand.NewSource(7)))
	if err := fresh.restoreState(blob); err != nil {
		t.Fatal(err)
	}
	// Re-encoding must be byte-identical: restore is exact, and the
	// candidate order is canonicalized.
	blob2, err := fresh.appendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("restored sketch re-encodes differently")
	}
	// Future behavior must match the original exactly.
	feed := rand.New(rand.NewSource(99))
	for i := 0; i < 3000; i++ {
		x := uint64(feed.Intn(60)) * 3
		orig.Add(x)
		fresh.Add(x)
	}
	sameReport(t, orig.Report(), fresh.Report())
	if orig.Total() != fresh.Total() || orig.F2Estimate() != fresh.F2Estimate() {
		t.Fatal("totals diverged after restore")
	}
}

func TestHeavyHittersRestoreRejectsOtherSeed(t *testing.T) {
	blob, err := loadedHH(7, 1000).appendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	other := NewF2HeavyHitters(0.05, rand.New(rand.NewSource(8)))
	if err := other.restoreState(blob); err == nil {
		t.Fatal("restore into different-seed construction must fail")
	}
}

func TestHeavyHittersUnmarshalMalformed(t *testing.T) {
	blob, _ := loadedHH(5, 800).appendState(nil)
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", blob[:10]},
		{"truncated body", blob[:len(blob)-5]},
		{"trailing garbage", append(append([]byte{}, blob...), 1, 2, 3)},
	} {
		dst := NewF2HeavyHitters(0.05, rand.New(rand.NewSource(5)))
		if err := dst.restoreState(tc.data); err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
	}
}

func loadedContrib(seed int64, n int) *Contributing {
	rng := rand.New(rand.NewSource(seed))
	c := NewF2Contributing(0.1, 64, 1<<12, DefaultContribConfig(), rng)
	feed := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < n; i++ {
		c.Add(uint64(feed.Intn(200)))
	}
	return c
}

func TestContributingSnapshotRoundTrip(t *testing.T) {
	orig := loadedContrib(11, 4000)
	blob, err := orig.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewF2Contributing(0.1, 64, 1<<12, DefaultContribConfig(), rand.New(rand.NewSource(11)))
	if err := fresh.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	blob2, err := fresh.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("restored battery re-encodes differently")
	}
	feed := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		x := uint64(feed.Intn(300))
		orig.Add(x)
		fresh.Add(x)
	}
	sameReport(t, orig.Report(), fresh.Report())
	if orig.SpaceWords() != fresh.SpaceWords() {
		t.Fatal("space accounting diverged after restore")
	}
}

func TestContributingRestoreRejectsOtherSeed(t *testing.T) {
	blob, err := loadedContrib(11, 500).AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	other := NewF2Contributing(0.1, 64, 1<<12, DefaultContribConfig(), rand.New(rand.NewSource(12)))
	if err := other.RestoreState(blob); err == nil {
		t.Fatal("restore into different-seed construction must fail")
	}
}

func TestContributingUnmarshalMalformed(t *testing.T) {
	blob, _ := loadedContrib(13, 600).AppendState(nil)
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", blob[:8]},
		{"truncated level", blob[:len(blob)/2]},
		{"trailing garbage", append(append([]byte{}, blob...), 0xff)},
	} {
		dst := NewF2Contributing(0.1, 64, 1<<12, DefaultContribConfig(), rand.New(rand.NewSource(13)))
		if err := dst.RestoreState(tc.data); err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
	}
}

// fullCounters is every level's CountSketch at full width (its Section 5
// message), equal for equal counters whatever the storage form.
func fullCounters(t *testing.T, c *Contributing) [][]byte {
	t.Helper()
	out := make([][]byte, len(c.levels))
	for i := range c.levels {
		b, err := c.levels[i].hh.cs.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// csForm names a CountSketch's storage form: "wide" (the full table),
// "dense" (its layout's cells) or "unbuilt" (no cells).
func csForm(cs *CountSketch) string {
	switch {
	case cs.domain == 0:
		return "wide"
	case cs.lay == nil:
		return "unbuilt"
	}
	return "dense"
}

// TestContributingStateRoundTrip drives the checkpoint codec (estimator
// encoding v2) over batteries in every storage state — unbuilt, built,
// built but merged back to all-zero counters, widened by out-of-domain
// keys, and built over a domain whose layouts reach every cell — on
// random streams. AppendState, RestoreState into a fresh same-seed
// battery and AppendState again must give identical bytes; the restored
// battery must hold the source's counters (full-width encodings equal)
// with every level's CountSketch in the form its state was encoded in,
// and an all-zero dense level must write no cells.
func TestContributingStateRoundTrip(t *testing.T) {
	const m, fullM = 300, 2000
	build := func(seed int64) *Contributing {
		return NewF2Contributing(0.1, 64, m, DefaultContribConfig(), rand.New(rand.NewSource(seed)))
	}
	// γ=1 gives width 97, which 2000 keys reach in every row.
	buildFull := func(seed int64) *Contributing {
		return NewF2Contributing(1, 64, fullM, DefaultContribConfig(), rand.New(rand.NewSource(seed)))
	}
	feedIn := func(c *Contributing, rng *rand.Rand, n, domain int) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(rng.Intn(domain))
			c.Add(keys[i])
		}
		return keys
	}
	feed := func(c *Contributing, rng *rand.Rand, n int) []uint64 { return feedIn(c, rng, n, m) }
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		built := build(seed)
		feed(built, rng, 200+rng.Intn(3000))

		// Merged to zero: a twin fed the same keys, its counters negated,
		// cancels every counter but leaves the layouts built.
		zero, twin := build(seed), build(seed)
		keys := feed(zero, rng, 100+rng.Intn(500))
		for _, x := range keys {
			twin.Add(x)
		}
		for i := range twin.levels {
			for j := range twin.levels[i].hh.cs.table {
				twin.levels[i].hh.cs.table[j] = -twin.levels[i].hh.cs.table[j]
			}
		}
		if err := zero.Merge(twin); err != nil {
			t.Fatal(err)
		}

		widened := build(seed)
		feed(widened, rng, 500)
		for i := 0; i < 40; i++ {
			widened.Add(m + uint64(rng.Intn(1000)))
		}

		full := buildFull(seed)
		feedIn(full, rng, 3000, fullM)

		for _, tc := range []struct {
			name  string
			c     *Contributing
			build func(int64) *Contributing
		}{
			{"unbuilt", build(seed), build},
			{"built", built, build},
			{"merged to zero", zero, build},
			{"widened", widened, build},
			{"full layout", full, buildFull},
		} {
			enc, err := tc.c.AppendState(nil)
			if err != nil {
				t.Fatal(err)
			}
			fresh := tc.build(seed)
			if err := fresh.RestoreState(enc); err != nil {
				t.Fatalf("seed %d %s: %v", seed, tc.name, err)
			}
			again, err := fresh.AppendState(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, again) {
				t.Fatalf("seed %d %s: restored battery re-encodes differently", seed, tc.name)
			}
			if !reflect.DeepEqual(fullCounters(t, tc.c), fullCounters(t, fresh)) {
				t.Fatalf("seed %d %s: restored counters differ from the source's", seed, tc.name)
			}
			var wide, fullDense, srcStored, stored int
			for i := range tc.c.levels {
				src, got := tc.c.levels[i].hh.cs, fresh.levels[i].hh.cs
				if src.domain == 0 {
					wide++
				}
				want := csForm(src)
				if want == "dense" && allZero(src.table) {
					want = "unbuilt" // an all-zero dense sketch writes no cells
				}
				if form := csForm(got); form != want {
					t.Fatalf("seed %d %s level %d: restored %s, source encoded %s", seed, tc.name, i, form, want)
				}
				if got.lay != nil && int(got.lay.start[5]) == got.depth*got.width {
					fullDense++
				}
				srcStored += len(src.table)
				stored += len(got.table)
			}
			switch tc.name {
			case "unbuilt":
				if stored != 0 {
					t.Fatalf("seed %d unbuilt: restored %d cells, want none", seed, stored)
				}
			case "merged to zero":
				if srcStored == 0 || stored != 0 {
					t.Fatalf("seed %d merged to zero: source stores %d cells, restored %d, want some and none", seed, srcStored, stored)
				}
			case "widened":
				if wide == 0 {
					t.Fatalf("seed %d: no level widened", seed)
				}
			case "built":
				if wide != 0 || stored == 0 {
					t.Fatalf("seed %d built: %d wide levels, %d cells", seed, wide, stored)
				}
			case "full layout":
				if fullDense == 0 {
					t.Fatalf("seed %d: no level's layout reaches every cell", seed)
				}
			}
		}
	}
}

// TestRestoresRequireCanonicalOrder feeds each decoder its own encoding
// with the values out of the strictly ascending order the encoder
// writes: an L0 with a value duplicated or two values swapped, and a
// heavy-hitter state with two candidate ids swapped. Each must fail to
// decode; accepted, it would re-encode to other bytes.
func TestRestoresRequireCanonicalOrder(t *testing.T) {
	l0 := NewL0(0.25, 1000, 1000, rand.New(rand.NewSource(8)))
	for x := uint64(0); x < 500; x++ {
		l0.Add(x)
	}
	l0Blob, err := l0.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back L0
	if err := back.UnmarshalBinary(l0Blob); err != nil {
		t.Fatal(err)
	}
	if again, _ := back.MarshalBinary(); !bytes.Equal(l0Blob, again) {
		t.Fatal("L0 re-encodes differently")
	}
	vals := len(l0Blob) - 8*len(l0.vals) // offset of the first value
	hh := loadedHH(9, 3000)
	hhBlob, err := hh.appendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	// After the 20-byte header and the CountSketch blob: the candidate
	// count, then the ids.
	ids := 28 + int(binary.LittleEndian.Uint32(hhBlob[20:24]))
	if n := binary.LittleEndian.Uint32(hhBlob[ids-4:]); n < 2 {
		t.Fatalf("%d candidates, need two", n)
	}
	edit := func(blob []byte, edit func([]byte)) []byte {
		out := append([]byte(nil), blob...)
		edit(out)
		return out
	}
	swap := func(at int) func([]byte) {
		return func(b []byte) {
			var tmp [8]byte
			copy(tmp[:], b[at:at+8])
			copy(b[at:at+8], b[at+8:at+16])
			copy(b[at+8:at+16], tmp[:])
		}
	}
	for _, tc := range []struct {
		name   string
		data   []byte
		decode func([]byte) error
	}{
		{"L0 duplicated value", edit(l0Blob, func(b []byte) { copy(b[vals+8:vals+16], b[vals:vals+8]) }),
			func(b []byte) error { return new(L0).UnmarshalBinary(b) }},
		{"L0 swapped pair", edit(l0Blob, swap(vals)),
			func(b []byte) error { return new(L0).UnmarshalBinary(b) }},
		{"unsorted candidates", edit(hhBlob, swap(ids)),
			NewF2HeavyHitters(0.05, rand.New(rand.NewSource(9))).restoreState},
	} {
		if err := tc.decode(tc.data); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
}
