package scenario

import (
	"math"
	"testing"
)

// TestHistQuantile pins the power-of-two bucket interpolation: the lower
// bound of a bucket is half its upper (0 for the first), and the quantile
// interpolates linearly inside the landing bucket.
func TestHistQuantile(t *testing.T) {
	if got := histQuantile(nil, 0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	if got := histQuantile(map[int64]int64{1024: 0}, 0.5); got != 0 {
		t.Fatalf("zero-count histogram quantile = %v, want 0", got)
	}

	// One bucket [0, 100]: the q-quantile is q*upper exactly.
	one := map[int64]int64{100: 10}
	for _, q := range []float64{0.1, 0.5, 0.99} {
		want := q * 100
		if got := histQuantile(one, q); math.Abs(got-want) > 1e-9 {
			t.Fatalf("single-bucket q=%v: got %v, want %v", q, got, want)
		}
	}

	// Two buckets: [0,128] holds 3 of 4 samples, (128,256] one. The median
	// lands in the first bucket at 2/3 of it; p99 lands in the second,
	// which spans 128..256.
	two := map[int64]int64{128: 3, 256: 1}
	if got, want := histQuantile(two, 0.5), 128.0*(2.0/3.0); math.Abs(got-want) > 1e-9 {
		t.Fatalf("p50 = %v, want %v", got, want)
	}
	p99 := histQuantile(two, 0.99)
	if p99 <= 128 || p99 > 256 {
		t.Fatalf("p99 = %v, want inside (128, 256]", p99)
	}

	// Monotone in q.
	h := map[int64]int64{64: 5, 128: 20, 512: 4, 4096: 1}
	prev := -1.0
	for _, q := range []float64{0.05, 0.25, 0.5, 0.75, 0.95, 0.999} {
		v := histQuantile(h, q)
		if v < prev {
			t.Fatalf("quantile not monotone: q=%v gave %v after %v", q, v, prev)
		}
		prev = v
	}
	// q=1 must land in (or at the top of) the last bucket.
	if top := histQuantile(h, 1); top > 4096 || top <= 2048 {
		t.Fatalf("q=1 = %v, want inside (2048, 4096]", top)
	}
}

// TestServerHistsDiff pins the snapshot-diff semantics: per-bucket growth,
// clamped at zero so a node restart (histogram reset) degrades the phase
// instead of producing negative counts.
func TestServerHistsDiff(t *testing.T) {
	prev := serverHists{
		"ingest_batch_nanos": {128: 10, 256: 5},
		"query_nanos":        {64: 2},
	}
	cur := serverHists{
		"ingest_batch_nanos": {128: 14, 256: 2, 512: 1}, // 256 reset below prev
		"query_nanos":        {64: 2},                   // no growth
	}
	d := cur.diff(prev)
	ing := d["ingest_batch_nanos"]
	if ing[128] != 4 || ing[512] != 1 {
		t.Fatalf("diff growth wrong: %+v", ing)
	}
	if _, ok := ing[256]; ok {
		t.Fatalf("reset bucket not clamped at zero: %+v", ing)
	}
	if _, ok := d["query_nanos"]; ok {
		t.Fatalf("histogram with no growth should be dropped: %+v", d)
	}
}
