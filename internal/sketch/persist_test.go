package sketch

import (
	"bytes"
	"math/rand"
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
	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dec := new(HeavyHitters)
	if err := dec.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	// Restore into a fresh same-seed (hence same-hash) construction.
	fresh := NewF2HeavyHitters(0.05, rand.New(rand.NewSource(7)))
	if err := fresh.Restore(dec); err != nil {
		t.Fatal(err)
	}
	// Re-encoding must be byte-identical: restore is exact, and the
	// candidate order is canonicalized.
	blob2, err := fresh.MarshalBinary()
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
	orig := loadedHH(7, 1000)
	blob, _ := orig.MarshalBinary()
	dec := new(HeavyHitters)
	if err := dec.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	other := NewF2HeavyHitters(0.05, rand.New(rand.NewSource(8)))
	if err := other.Restore(dec); err == nil {
		t.Fatal("restore into different-seed construction must fail")
	}
}

func TestHeavyHittersMarshalMidBatchFails(t *testing.T) {
	hh := loadedHH(3, 100)
	hh.BeginBatch([]uint64{1, 2, 3}, new(BatchMemory))
	if _, err := hh.MarshalBinary(); err == nil {
		t.Fatal("mid-batch marshal must fail")
	}
	hh.AddBatched(0)
	hh.EndBatch()
	if _, err := hh.MarshalBinary(); err != nil {
		t.Fatalf("post-batch marshal: %v", err)
	}
}

func TestHeavyHittersUnmarshalMalformed(t *testing.T) {
	blob, _ := loadedHH(5, 800).MarshalBinary()
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", blob[:10]},
		{"truncated body", blob[:len(blob)-5]},
		{"trailing garbage", append(append([]byte{}, blob...), 1, 2, 3)},
	} {
		dec := new(HeavyHitters)
		if err := dec.UnmarshalBinary(tc.data); err == nil {
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
	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dec := new(Contributing)
	if err := dec.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	fresh := NewF2Contributing(0.1, 64, 1<<12, DefaultContribConfig(), rand.New(rand.NewSource(11)))
	if err := fresh.Restore(dec); err != nil {
		t.Fatal(err)
	}
	blob2, err := fresh.MarshalBinary()
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
	blob, _ := loadedContrib(11, 500).MarshalBinary()
	dec := new(Contributing)
	if err := dec.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	other := NewF2Contributing(0.1, 64, 1<<12, DefaultContribConfig(), rand.New(rand.NewSource(12)))
	if err := other.Restore(dec); err == nil {
		t.Fatal("restore into different-seed construction must fail")
	}
}

func TestContributingUnmarshalMalformed(t *testing.T) {
	blob, _ := loadedContrib(13, 600).MarshalBinary()
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", blob[:8]},
		{"truncated level", blob[:len(blob)/2]},
		{"trailing garbage", append(append([]byte{}, blob...), 0xff)},
	} {
		dec := new(Contributing)
		if err := dec.UnmarshalBinary(tc.data); err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
	}
}
