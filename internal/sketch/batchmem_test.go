package sketch

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestBatchMemorySharedEquivalence passes ONE BatchMemory to several
// heavy-hitter sketches and contributing batteries of different seeds and
// thresholds, interleaving their batches at random split points, exactly
// as one engine worker feeds many oracle units. Every instance must end
// bit-identical to a twin fed the same keys through scalar Add: counters,
// totals, candidate sets and reports, also after a merge and a checkpoint
// round trip. All instances index the same keys slice, so a key that is a
// candidate of one sketch's batch is not one in the next borrower's first
// batch; the small φ forces refreshes in the middle of batches.
func TestBatchMemorySharedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	keys, occ, _ := batchStream(24000, 500, rng)

	type hhPair struct{ seq, bat *HeavyHitters }
	type cPair struct{ seq, bat *Contributing }
	var hhs []hhPair
	// A domain of 0 hashes every key; 500 makes a dense-domain sketch
	// beside the hashing ones, and 450 one that a key past its domain
	// widens (mid-batch on bat).
	buildHH := func(i int) *HeavyHitters {
		phi := []float64{0.5, 0.05, 0.2, 0.1}[i]
		domain := []int{0, 0, 500, 450}[i]
		return newF2HeavyHitters(phi, domain, rand.New(rand.NewSource(int64(40+i))))
	}
	for i := 0; i < 4; i++ {
		hhs = append(hhs, hhPair{buildHH(i), buildHH(i)})
	}
	var cs []cPair
	for i, gamma := range []float64{0.05, 0.2} {
		seed := int64(60 + i)
		cfg := DefaultContribConfig()
		cs = append(cs, cPair{
			NewF2Contributing(gamma, 64, 500, cfg, rand.New(rand.NewSource(seed))),
			NewF2Contributing(gamma, 64, 500, cfg, rand.New(rand.NewSource(seed))),
		})
	}

	var run Run
	var mem BatchMemory
	n := len(hhs) + len(cs)
	pos := make([]int, n)
	// feed runs instance i's next batch, up to occurrence end, and checks
	// its candidate sets right away: a wrong membership answer skips an
	// admission, which a later refresh may hide again.
	feed := func(i, end int) {
		part := occ[pos[i]:end]
		pos[i] = end
		if i < len(hhs) {
			p := hhs[i]
			p.bat.addBatch(keys, run.fill(len(keys), part), nil, &mem)
			for _, ki := range part {
				p.seq.Add(keys[ki])
			}
			if !reflect.DeepEqual(p.seq.candSet(), p.bat.candSet()) {
				t.Fatalf("hh %d: candidate sets diverged at occurrence %d", i, end)
			}
			return
		}
		p := cs[i-len(hhs)]
		p.bat.AddBatch(keys, run.fill(len(keys), part), &mem)
		for _, ki := range part {
			p.seq.Add(keys[ki])
		}
		for l := range p.seq.levels {
			if !reflect.DeepEqual(p.seq.levels[l].hh.candSet(), p.bat.levels[l].hh.candSet()) {
				t.Fatalf("contributing %d level %d: candidate sets diverged at occurrence %d", i-len(hhs), l, end)
			}
		}
	}
	// Every instance's first batch in turn, over the same leading keys:
	// memory that kept anything of a borrower's batch would hand it to the
	// next borrower.
	for i := 0; i < n; i++ {
		feed(i, 300)
	}
	for done := 0; done < n; {
		i := rng.Intn(n)
		if pos[i] == len(occ) {
			continue
		}
		end := pos[i] + rng.Intn(len(occ)-pos[i]+1)
		if rng.Intn(4) == 0 {
			end = len(occ) // some whole-stream batches: many refreshes each
		}
		if feed(i, end); end == len(occ) {
			done++
		}
	}

	same := func(name string, a, b *HeavyHitters) {
		t.Helper()
		if a.total != b.total {
			t.Errorf("%s: total %d != %d", name, a.total, b.total)
		}
		if !reflect.DeepEqual(a.cs.table, b.cs.table) {
			t.Errorf("%s: counters diverged", name)
		}
		if !reflect.DeepEqual(a.candSet(), b.candSet()) {
			t.Errorf("%s: candidate sets diverged", name)
		}
		if !reflect.DeepEqual(a.Report(), b.Report()) {
			t.Errorf("%s: reports diverged", name)
		}
	}
	for i, p := range hhs {
		same(fmt.Sprintf("hh %d", i), p.seq, p.bat)
	}
	if hhs[2].bat.cs.domain == 0 || hhs[3].bat.cs.domain != 0 {
		t.Error("hh 2 must stay dense and hh 3 must widen")
	}
	// Merges and checkpoints carry the candidate sets, candidates at or
	// above the domain included: each side merges a third sketch fed
	// keys past every domain (the union outgrows the capacity and is
	// trimmed), then bat restores from its own checkpoint. Both must stay
	// equal to the scalar twin.
	for i, p := range hhs {
		name := fmt.Sprintf("hh %d", i)
		other := buildHH(i)
		for j := 0; j < 4000; j++ {
			other.Add(uint64(rng.Intn(700)))
		}
		for _, hh := range []*HeavyHitters{p.seq, p.bat} {
			if err := hh.Merge(other); err != nil {
				t.Fatal(err)
			}
		}
		same(name+" merged", p.seq, p.bat)
		if i == 3 && (len(p.bat.wide) == 0 || len(p.bat.wide) == len(p.bat.ids)) {
			t.Errorf("hh 3 holds %d candidates, %d of them past its domain; want both kinds", len(p.bat.ids), len(p.bat.wide))
		}
		blob, err := p.bat.appendState(nil)
		if err != nil {
			t.Fatal(err)
		}
		restored := buildHH(i)
		if err := restored.restoreState(blob); err != nil {
			t.Fatal(err)
		}
		same(name+" restored", p.seq, restored)
		if want, _ := p.seq.appendState(nil); !bytes.Equal(blob, want) {
			t.Errorf("%s: checkpoint differs from the scalar twin's", name)
		}
	}
	for i, p := range cs {
		for l := range p.seq.levels {
			same(fmt.Sprintf("contributing %d level %d", i, l), p.seq.levels[l].hh, p.bat.levels[l].hh)
		}
		if !reflect.DeepEqual(p.seq.Report(), p.bat.Report()) {
			t.Errorf("contributing %d: reports diverged", i)
		}
	}
}

// TestHeavyHittersBatchRefreshAllocs pins the ingest path's refresh
// memory: on a warmed dense sketch and a warmed wide one, a batch of
// fresh keys that forces a refresh inside it allocates nothing, with or
// without a sampling mask. The replay reuses
// the worker's BatchMemory, the candidate list's cap+1 slots, and the
// bitmap of a dense sketch or the map of a wide one.
func TestHeavyHittersBatchRefreshAllocs(t *testing.T) {
	for _, domain := range []int{2000, 0} {
		for _, sampled := range []bool{false, true} {
			hh := newF2HeavyHitters(0.05, domain, rand.New(rand.NewSource(1)))
			// More fresh keys than the cap/2 a refresh keeps, each twice.
			keys := make([]uint64, hh.cap)
			occ := make([]int32, 2*len(keys))
			for i := range occ {
				occ[i] = int32(i % len(keys))
			}
			var bits []uint8
			if sampled {
				// Three in four keys: still more than the free slots.
				bits = make([]uint8, len(keys))
				for i := range bits[:len(bits)*3/4] {
					bits[i] = 1
				}
			}
			var run Run
			var mem BatchMemory
			next := uint64(0)
			feed := func() {
				for i := range keys {
					keys[i] = next % 2000
					next++
				}
				before := hh.total
				hh.addBatch(keys, run.fill(len(keys), occ), bits, &mem)
				if hh.total == before {
					t.Fatal("batch fed nothing")
				}
			}
			for i := 0; i < 4; i++ {
				feed()
			}
			if allocs := testing.AllocsPerRun(50, feed); allocs != 0 {
				t.Fatalf("domain %d, sampled %v: addBatch allocated %.0f times per refresh-forcing batch", domain, sampled, allocs)
			}
		}
	}
}

// TestHeavyHittersScalarConcurrentRefresh feeds independent sketches
// through scalar Add from several goroutines at once, refreshes
// included; each must end as a sketch fed alone does, so no refresh
// memory is shared between sketches.
func TestHeavyHittersScalarConcurrentRefresh(t *testing.T) {
	const workers = 4
	feed := func(hh *HeavyHitters, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 20000; i++ {
			hh.Add(uint64(rng.Intn(3000)))
		}
	}
	var want [workers]map[uint64]bool
	for w := range want {
		hh := NewF2HeavyHitters(0.05, rand.New(rand.NewSource(int64(w))))
		feed(hh, int64(100+w))
		want[w] = hh.candSet()
	}
	var got [workers]*HeavyHitters
	var wg sync.WaitGroup
	for w := range got {
		got[w] = NewF2HeavyHitters(0.05, rand.New(rand.NewSource(int64(w))))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			feed(got[w], int64(100+w))
		}(w)
	}
	wg.Wait()
	for w := range got {
		if !reflect.DeepEqual(got[w].candSet(), want[w]) {
			t.Errorf("worker %d: candidate set differs from a sketch fed alone", w)
		}
	}
}
