package sketch

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestMedian5Exhaustive cross-checks the selection network against a full
// sort over every 5-tuple from a small value alphabet (duplicates
// included), which covers all relative orderings.
func TestMedian5Exhaustive(t *testing.T) {
	vals := []int64{-2, -1, 0, 1, 2}
	var tup [5]int64
	var rec func(d int)
	rec = func(d int) {
		if d == 5 {
			sorted := append([]int64(nil), tup[:]...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			want := sorted[2]
			if got := median5(tup[0], tup[1], tup[2], tup[3], tup[4]); got != want {
				t.Fatalf("median5(%v) = %d, want %d", tup, got, want)
			}
			return
		}
		for _, v := range vals {
			tup[d] = v
			rec(d + 1)
		}
	}
	rec(0)
}

// TestSelectTopKV checks that quickselect places exactly the top-k set
// (under the estimate-desc/id-asc total order) in the prefix, against a
// full sort, across sizes spanning the insertion-sort cutoff, duplicate
// estimates, and every k.
func TestSelectTopKV(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 2, 5, 15, 16, 17, 33, 84, 257, 1000} {
		for trial := 0; trial < 8; trial++ {
			base := make([]hhKV, n)
			for i := range base {
				base[i] = hhKV{id: uint64(i), est: int64(rng.Intn(n/4 + 2))}
			}
			rng.Shuffle(n, func(i, j int) { base[i], base[j] = base[j], base[i] })
			sorted := append([]hhKV(nil), base...)
			slices.SortFunc(sorted, func(a, b hhKV) int {
				switch {
				case kvLess(a, b):
					return -1
				case kvLess(b, a):
					return 1
				}
				return 0
			})
			for _, k := range []int{0, 1, n / 3, n / 2, n - 1, n} {
				got := append([]hhKV(nil), base...)
				selectTopKV(got, k)
				want := map[uint64]bool{}
				for _, kv := range sorted[:k] {
					want[kv.id] = true
				}
				for _, kv := range got[:k] {
					if !want[kv.id] {
						t.Fatalf("n=%d k=%d: id %d (est %d) in prefix but not in top-k",
							n, k, kv.id, kv.est)
					}
					delete(want, kv.id)
				}
				if len(want) != 0 {
					t.Fatalf("n=%d k=%d: %d top-k ids missing from prefix", n, k, len(want))
				}
			}
		}
	}
}
