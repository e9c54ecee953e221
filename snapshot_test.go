package streamcover

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"streamcover/internal/snapshot"
	"streamcover/internal/workload"
)

func snapEdges(seed int64, m, n, count int) []Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, count)
	for i := range edges {
		edges[i] = Edge{Set: uint32(rng.Intn(m)), Elem: uint32(rng.Intn(n))}
	}
	return edges
}

// TestEncodeDecodeRoundTrip pins the tentpole guarantee at the facade:
// a decoded estimator has the same future outputs and space accounting as
// the original, across all exposed options.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"defaults", nil},
		{"seeded", []Option{WithSeed(99)}},
		{"boosted", []Option{WithSeed(7), WithRepetitions(2)}},
		{"hll", []Option{WithSeed(5), WithHLLBackend()}},
		{"tight ladder", []Option{WithGuessBase(2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig, err := NewEstimator(50, 300, 4, 4, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := orig.ProcessAll(snapEdges(3, 50, 300, 3000)); err != nil {
				t.Fatal(err)
			}
			blob, err := orig.Encode()
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeEstimator(blob)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Edges() != orig.Edges() {
				t.Fatalf("edge count: %d vs %d", dec.Edges(), orig.Edges())
			}
			// Continue both on a suffix and compare everything observable.
			suffix := snapEdges(4, 50, 300, 2000)
			if err := orig.ProcessAll(suffix); err != nil {
				t.Fatal(err)
			}
			if err := dec.ProcessAll(suffix); err != nil {
				t.Fatal(err)
			}
			r1, r2 := orig.Result(), dec.Result()
			if !reflect.DeepEqual(r1, r2) {
				t.Fatalf("results diverged:\n  orig     %+v\n  restored %+v", r1, r2)
			}
			b1, err := orig.Encode()
			if err != nil {
				t.Fatal(err)
			}
			b2, err := dec.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatal("re-encoded states differ")
			}
		})
	}
}

// TestSnapshotBatchScratchInterplay pins the contract between snapshots
// and the batch scratch: the scratch is excluded from encoding (an
// estimator fed by Process and one fed in other batches encode
// byte-identically at equal state) and rebuilt lazily after decode (a
// decoded estimator's first batch stays bit-identical to the Process-fed
// one). Clone sits in the middle: clone-then-encode equals encode. Two
// shapes run on both distinct-counter backends: a small one, and
// query-mix's (m=200, n=2000, k=10, α=4, in 8192-edge batches), whose
// cntrLarge levels refresh inside batches and whose two top battery
// levels sample below rate 1. Process buffers into the batch path, so
// the one-Add-per-edge side of the distinct counters' byte check is
// internal/core's TestCrossPathReferenceEquivalence.
func TestSnapshotBatchScratchInterplay(t *testing.T) {
	for _, tc := range []struct {
		name          string
		m, n, k       int
		alpha         float64
		edges, suffix int
		batch         int
		opts          []Option
	}{
		{"small", 40, 250, 3, 4, 4000, 1500, 300, nil},
		{"small hll", 40, 250, 3, 4, 4000, 1500, 300, []Option{WithHLLBackend()}},
		{"query-mix", 200, 2000, 10, 4, 30000, 10000, 8192, nil},
		{"query-mix hll", 200, 2000, 10, 4, 30000, 10000, 8192, []Option{WithHLLBackend()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]Option{WithSeed(21)}, tc.opts...)
			build := func() *Estimator {
				est, err := NewEstimator(tc.m, tc.n, tc.k, tc.alpha, opts...)
				if err != nil {
					t.Fatal(err)
				}
				return est
			}
			edges := snapEdges(11, tc.m, tc.n, tc.edges)
			scalar := build()
			for _, e := range edges {
				if err := scalar.Process(e); err != nil {
					t.Fatal(err)
				}
			}
			batched := build()
			for off := 0; off < len(edges); off += tc.batch {
				end := off + tc.batch
				if end > len(edges) {
					end = len(edges)
				}
				if err := batched.ProcessBatch(edges[off:end]); err != nil {
					t.Fatal(err)
				}
			}

			bScalar, err := scalar.Encode()
			if err != nil {
				t.Fatal(err)
			}
			bBatched, err := batched.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bScalar, bBatched) {
				t.Fatal("batch scratch leaked into the encoding")
			}

			// Clone must encode identically to its source (the clone's
			// scratch starts empty, the source's may be warm — neither is
			// state).
			clone, err := batched.Clone()
			if err != nil {
				t.Fatal(err)
			}
			bClone, err := clone.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bClone, bBatched) {
				t.Fatal("clone encodes differently from its source")
			}

			// A decoded estimator's first act is a batch: the lazily
			// rebuilt scratch must reproduce the scalar path bit for bit.
			dec, err := DecodeEstimator(bScalar)
			if err != nil {
				t.Fatal(err)
			}
			suffix := snapEdges(12, tc.m, tc.n, tc.suffix)
			if err := dec.ProcessBatch(suffix); err != nil {
				t.Fatal(err)
			}
			for _, e := range suffix {
				if err := scalar.Process(e); err != nil {
					t.Fatal(err)
				}
			}
			if r1, r2 := scalar.Result(), dec.Result(); !reflect.DeepEqual(r1, r2) {
				t.Fatalf("post-decode batch path diverged from scalar:\n  scalar  %+v\n  decoded %+v", r1, r2)
			}
			bScalar, err = scalar.Encode()
			if err != nil {
				t.Fatal(err)
			}
			bDec, err := dec.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bScalar, bDec) {
				t.Fatal("post-decode batch path encodes differently from the scalar path")
			}
		})
	}
}

// FuzzDecodeEstimator drives the full snapshot decoder — envelope, header
// and the recursive state codec underneath — with arbitrary bytes. Every
// outcome must be a clean error or a working estimator, never a panic.
// The corpus holds encoded blobs, a golden fixture and a header that
// claims more state than its blob holds.
func FuzzDecodeEstimator(f *testing.F) {
	small, err := NewEstimator(10, 50, 2, 4)
	if err != nil {
		f.Fatal(err)
	}
	if err := small.ProcessAll(snapEdges(2, 10, 50, 200)); err != nil {
		f.Fatal(err)
	}
	blob, err := small.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)-7])
	f.Add([]byte{})
	f.Add([]byte("SCSN"))
	mangled := append([]byte{}, blob...)
	mangled[len(mangled)/3] ^= 0x10
	f.Add(mangled)
	f.Add(headerOnlyBlob(60, 500, 5, 4, 2))
	f.Add(readGolden(f, "golden_v2_fresh.bin"))
	f.Fuzz(func(t *testing.T, data []byte) {
		est, err := DecodeEstimator(data)
		if err != nil {
			return
		}
		// An accepted snapshot must yield a usable estimator.
		_ = est.Result()
	})
}

func TestDecodeEstimatorMalformed(t *testing.T) {
	est, err := NewEstimator(30, 200, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := est.ProcessAll(snapEdges(8, 30, 200, 1000)); err != nil {
		t.Fatal(err)
	}
	blob, err := est.Encode()
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte{}, blob...)
	corrupt[len(corrupt)/2] ^= 0x40
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"garbage", []byte("not a snapshot at all")},
		{"truncated header", blob[:10]},
		{"truncated payload", blob[:len(blob)-20]},
		{"bit flip", corrupt},
		{"trailing garbage", append(append([]byte{}, blob...), 1, 2, 3)},
	} {
		if _, err := DecodeEstimator(tc.data); err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
	}
}

// headerOnlyBlob seals an Encode header for an estimator with these
// dimensions, seed 1 and reps repetitions, followed by nothing but the
// state's non-trivial flag.
func headerOnlyBlob(m, n, k int, alpha float64, reps int) []byte {
	buf := binary.AppendUvarint(nil, uint64(m))
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(k))
	buf = binary.AppendUvarint(buf, math.Float64bits(alpha))
	buf = binary.AppendVarint(buf, 1)
	buf = binary.AppendUvarint(buf, uint64(reps))
	buf = binary.AppendUvarint(buf, math.Float64bits(4))
	buf = append(buf, 0)               // L0 backend
	buf = binary.AppendUvarint(buf, 0) // edges
	return snapshot.Seal(append(buf, 0))
}

// TestDecodeEstimatorBoundsHeaderClaims decodes blobs that hold only a
// header, in bulk-ingest's shape (m=2000, n=100000, k=40, α=8), at ever
// more repetitions. Construction builds every (guess, repetition) unit the
// header claims, about 0.8 MB per repetition in this shape, so the decoder
// must reject such a blob before it constructs anything: every decode
// must fail and allocate under 1 MB. The cases run in order and the test
// stops at the first one over budget (reps=4 for a decoder that
// constructs first), so such a decoder never reaches the 200 MB claimed
// at reps=256.
func TestDecodeEstimatorBoundsHeaderClaims(t *testing.T) {
	for _, reps := range []int{1, 4, 16, 256} {
		blob := headerOnlyBlob(2000, 100000, 40, 8, reps)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := DecodeEstimator(blob)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Fatalf("reps=%d (%d-byte blob): decoding allocated %.1f MB (err %v)", reps, len(blob), float64(n)/(1<<20), err)
		}
		if err == nil {
			t.Fatalf("reps=%d: a header-only blob decoded", reps)
		}
	}
}

// TestResultIsPureFunctionOfState: Result reports sets as a function of
// the estimator's state and seed alone. When LargeCommon wins with more
// than k sampled sets it reports a random k-subset; drawing that subset
// from the construction's RNG made a second Result report other sets, and
// a decoded estimator (whose RNG restarts) report the live one's first
// answer instead of its latest. The commonheavy family reaches that
// branch on several of these seeds.
func TestResultIsPureFunctionOfState(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		in := workload.CommonHeavy(1500, 300, 8, 40, 0.4, 2, rand.New(rand.NewSource(seed*101)))
		est, err := NewEstimator(in.System.M(), in.System.N, in.K, 4, WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := est.ProcessBatch(shuffledEdges(in, seed*7+1)); err != nil {
			t.Fatal(err)
		}
		first := est.Result()
		for i := 0; i < 3; i++ {
			if got := est.Result(); !reflect.DeepEqual(got, first) {
				t.Fatalf("seed %d: Result call %d reports %v, first reported %v", seed, i+2, got.SetIDs, first.SetIDs)
			}
		}
		blob, err := est.Encode()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeEstimator(blob)
		if err != nil {
			t.Fatal(err)
		}
		if got := dec.Result(); !reflect.DeepEqual(got, est.Result()) {
			t.Fatalf("seed %d: decoded estimator reports %v, live one %v", seed, got.SetIDs, est.Result().SetIDs)
		}
	}

	// kcoverd answers a query with Result on the session's live estimator,
	// between batches, so Result must leave the state unchanged: the same
	// encoding after it, the same encoding as an unqueried twin once both
	// take the next batch, and the same answer a clone gives.
	for _, sh := range ledgerShapes {
		for _, form := range []string{"fresh", "ingested", "decoded", "merged"} {
			est, twin := ledgerShapeEstimator(t, sh, form), ledgerShapeEstimator(t, sh, form)
			before := mustEncode(t, est)
			clone, err := est.Clone()
			if err != nil {
				t.Fatal(err)
			}
			res := est.Result()
			if !bytes.Equal(mustEncode(t, est), before) {
				t.Fatalf("%s %s: Result changed the estimator's encoding", sh.name, form)
			}
			if cr := clone.Result(); !reflect.DeepEqual(res, cr) {
				t.Fatalf("%s %s: live Result %+v, clone's %+v", sh.name, form, res, cr)
			}
			next := snapEdges(sh.seed+1, sh.m, sh.n, 1024)
			for _, e := range []*Estimator{est, twin} {
				if err := e.ProcessBatch(next); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(mustEncode(t, est), mustEncode(t, twin)) {
				t.Fatalf("%s %s: a queried estimator fed one more batch encodes unlike its unqueried twin", sh.name, form)
			}
			est.Close()
			twin.Close()
		}
	}
}

// ledgerShape is the session shape of one of the benchmark's workloads.
type ledgerShape struct {
	name    string
	m, n, k int
	alpha   float64
	seed    int64
}

var ledgerShapes = []ledgerShape{
	{"bulk-ingest", 2000, 100000, 40, 8, 11},
	{"paced-tenants", 60, 500, 5, 4, 12},
	{"query-mix", 200, 2000, 10, 4, 13},
	{"crash-recover", 2000, 20000, 40, 8, 14},
}

// ledgerShapeEstimator builds an estimator in one of a ledger shape's
// forms: fresh, after ingest, decoded from that ingest's encoding, or two
// same-seed halves of that ingest merged.
func ledgerShapeEstimator(t *testing.T, sh ledgerShape, form string) *Estimator {
	t.Helper()
	build := func(edges []Edge) *Estimator {
		est, err := NewEstimator(sh.m, sh.n, sh.k, sh.alpha, WithSeed(sh.seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := est.ProcessBatch(edges); err != nil {
			t.Fatal(err)
		}
		return est
	}
	edges := snapEdges(sh.seed, sh.m, sh.n, 2048)
	switch form {
	case "fresh":
		return build(nil)
	case "decoded":
		est := build(edges)
		defer est.Close()
		dec, err := DecodeEstimator(mustEncode(t, est))
		if err != nil {
			t.Fatal(err)
		}
		return dec
	case "merged":
		est, other := build(edges[:len(edges)/2]), build(edges[len(edges)/2:])
		defer other.Close()
		if err := est.Merge(other); err != nil {
			t.Fatal(err)
		}
		return est
	}
	return build(edges)
}

func mustEncode(t *testing.T, est *Estimator) []byte {
	t.Helper()
	blob, err := est.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}
