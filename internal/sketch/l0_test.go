package sketch

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestL0ExactWhenSmall(t *testing.T) {
	s := NewL0(0.5, 1000, 1000, rand.New(rand.NewSource(1)))
	for x := uint64(0); x < 10; x++ {
		s.Add(x)
		s.Add(x) // duplicates must not count
	}
	if got := s.Estimate(); got != 10 {
		t.Errorf("Estimate() = %v, want exactly 10 below capacity", got)
	}
	if s.Adds() != 20 {
		t.Errorf("Adds() = %d, want 20", s.Adds())
	}
}

func TestL0Empty(t *testing.T) {
	s := NewL0(0.5, 10, 10, rand.New(rand.NewSource(2)))
	if got := s.Estimate(); got != 0 {
		t.Errorf("empty sketch Estimate() = %v, want 0", got)
	}
}

func TestL0AccuracyLarge(t *testing.T) {
	// Distinct count 50000 with eps=0.25: expect within 1±0.25 nearly always,
	// check a loose 30% envelope over several seeds.
	const distinct = 50000
	failures := 0
	for seed := int64(0); seed < 10; seed++ {
		s := NewL0(0.25, distinct, distinct, rand.New(rand.NewSource(seed)))
		for x := uint64(0); x < distinct; x++ {
			s.Add(x)
		}
		est := s.Estimate()
		if math.Abs(est-distinct)/distinct > 0.30 {
			failures++
		}
	}
	if failures > 1 {
		t.Errorf("%d/10 runs exceeded 30%% error", failures)
	}
}

func TestL0DuplicateHeavyStream(t *testing.T) {
	// A stream with massive duplication must still estimate the distinct
	// count, not the stream length.
	s := NewL0(0.25, 1000, 1000, rand.New(rand.NewSource(3)))
	for rep := 0; rep < 200; rep++ {
		for x := uint64(0); x < 300; x++ {
			s.Add(x)
		}
	}
	est := s.Estimate()
	if math.Abs(est-300)/300 > 0.35 {
		t.Errorf("Estimate() = %v, want ~300", est)
	}
}

func TestL0SpaceBounded(t *testing.T) {
	s := NewL0(0.5, 1<<20, 1<<20, rand.New(rand.NewSource(4)))
	for x := uint64(0); x < 1<<16; x++ {
		s.Add(x)
	}
	// k = 4/eps^2+1 = 17 values plus hash coefficients: well under 200 words.
	if w := s.SpaceWords(); w > 200 {
		t.Errorf("SpaceWords() = %d, want O(1/eps^2)", w)
	}
}

func TestL0MonotoneNondecreasing(t *testing.T) {
	// Estimates never decrease as more distinct keys arrive (bottom-k value
	// v_k only shrinks, estimate only grows), checked as a property.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewL0(0.4, 4096, 4096, rng)
		prev := 0.0
		for x := uint64(0); x < 4096; x++ {
			s.Add(x)
			est := s.Estimate()
			if est < prev-1e-9 {
				return false
			}
			prev = est
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestL0PanicsOnBadEps(t *testing.T) {
	for _, eps := range []float64{0, -1, 1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewL0(eps=%v) did not panic", eps)
				}
			}()
			NewL0(eps, 10, 10, rand.New(rand.NewSource(1)))
		}()
	}
}

// TestL0FillAllocatesNothing pins that filling a fresh L0 to its k
// retained values allocates nothing beyond its construction: the heap is
// sifted by hand over its []uint64, so no value is boxed.
func TestL0FillAllocatesNothing(t *testing.T) {
	const runs = 20
	rng := rand.New(rand.NewSource(3))
	fresh := make([]*L0, runs+1) // AllocsPerRun makes one warm-up call
	for i := range fresh {
		fresh[i] = NewL0Deg(0.4, 8, rng)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		s := fresh[next]
		next++
		for x := uint64(0); len(s.vals) < s.k; x++ {
			s.Add(x)
		}
	})
	if allocs != 0 {
		t.Fatalf("filling a fresh L0 to k=%d values allocated %.0f times", fresh[0].k, allocs)
	}
}

func BenchmarkL0Add(b *testing.B) {
	s := NewL0(0.25, 1<<20, 1<<20, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(uint64(i))
	}
}

// TestAddKeysMatchesAdd feeds the same occurrences to twin distinct
// counters, one per-occurrence Add each and one AddKeys per batch over a
// key list that holds duplicates, in shuffled order. The twins must
// encode to the same bytes and count the same adds: an L0 below its
// capacity k (exact count), one far above it (bottom-k eviction), and an
// HLL.
func TestAddKeysMatchesAdd(t *testing.T) {
	type counter interface {
		DistinctCounter
		Adds() uint64
		MarshalBinary() ([]byte, error)
	}
	cases := []struct {
		name     string
		universe int
		build    func(rng *rand.Rand) counter
	}{
		{"L0 below k", 12, func(rng *rand.Rand) counter { return NewL0Deg(0.4, 8, rng) }},
		{"L0 above k", 5000, func(rng *rand.Rand) counter { return NewL0Deg(0.4, 8, rng) }},
		{"HLL", 5000, func(rng *rand.Rand) counter { return NewHLL(8, rng) }},
	}
	for _, c := range cases {
		seq := c.build(rand.New(rand.NewSource(7)))
		bat := c.build(rand.New(rand.NewSource(7)))
		if seq.Adds() != 0 || bat.Adds() != 0 {
			t.Fatalf("%s: fresh counter has adds", c.name)
		}
		if c.name == "L0 below k" && c.universe >= seq.(*L0).k {
			t.Fatalf("%s: universe %d is not below k", c.name, c.universe)
		}
		rng := rand.New(rand.NewSource(9))
		var hv []uint64
		for batch := 0; batch < 40; batch++ {
			occ := rng.Intn(300)
			keys := make([]uint64, 0, occ)
			for i := 0; i < occ; i++ {
				x := uint64(rng.Intn(c.universe))
				seq.Add(x)
				keys = append(keys, x)
			}
			// Each key at least once, some several times, in any order.
			keys = append(keys, keys[:len(keys)/3]...)
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			hv = bat.AddKeys(keys, occ, hv)
			if seq.Adds() != bat.Adds() {
				t.Fatalf("%s batch %d: Adds %d != %d", c.name, batch, bat.Adds(), seq.Adds())
			}
			a, err := seq.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			b, err := bat.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("%s batch %d: AddKeys encodes differently from per-occurrence Add", c.name, batch)
			}
		}
		if l, ok := bat.(*L0); ok && c.universe > l.k && len(l.vals) != l.k {
			t.Fatalf("%s: holds %d values, want k=%d", c.name, len(l.vals), l.k)
		}
	}
}

// TestAddKeysAllocatesNothing pins that a warmed distinct counter takes a
// batch of keys through AddKeys with no allocation once its hash buffer
// has grown.
func TestAddKeysAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	keys := make([]uint64, 500)
	for i := range keys {
		keys[i] = uint64(rng.Intn(3000))
	}
	for _, de := range []DistinctCounter{NewL0Deg(0.4, 8, rng), NewHLL(10, rng)} {
		var hv []uint64
		for i := 0; i < 4; i++ {
			hv = de.AddKeys(keys, len(keys), hv)
		}
		off := uint64(0)
		allocs := testing.AllocsPerRun(50, func() {
			// Fresh keys each run, so an L0 keeps evicting.
			for i := range keys {
				keys[i] += off
			}
			off++
			hv = de.AddKeys(keys, len(keys), hv)
		})
		if allocs != 0 {
			t.Fatalf("%T: AddKeys allocated %.0f times per batch", de, allocs)
		}
	}
}
