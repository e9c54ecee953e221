package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"streamcover/internal/stream"
)

func persistEstimator(t *testing.T, seed int64) *Estimator {
	t.Helper()
	est, err := NewEstimator(60, 400, 4, 4, Practical(), NewOracleFactory(), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func persistStream(seed int64, n int) []stream.Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]stream.Edge, n)
	for i := range edges {
		edges[i] = stream.Edge{Set: uint32(rng.Intn(60)), Elem: uint32(rng.Intn(400))}
	}
	return edges
}

// TestEstimatorStateRoundTrip is the core round-trip guarantee: a blob
// restored into a fresh same-seed construction yields an estimator with
// the same future outputs and the same space accounting, and re-encodes
// byte-identically even after further (mixed scalar/batch) processing.
func TestEstimatorStateRoundTrip(t *testing.T) {
	orig := persistEstimator(t, 21)
	for _, e := range persistStream(5, 4000) {
		orig.Process(e)
	}
	blob, err := orig.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}

	restored := persistEstimator(t, 21)
	if err := restored.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if orig.SpaceWords() != restored.SpaceWords() {
		t.Fatalf("SpaceWords diverged: %d vs %d", orig.SpaceWords(), restored.SpaceWords())
	}

	// Continue both on the same suffix, deliberately down different code
	// paths: the original scalar, the restored batched. The batch scratch
	// is rebuilt lazily and must not affect state.
	suffix := persistStream(6, 3000)
	for _, e := range suffix {
		orig.Process(e)
	}
	for off := 0; off < len(suffix); off += 512 {
		end := off + 512
		if end > len(suffix) {
			end = len(suffix)
		}
		processEdges(restored, suffix[off:end])
	}

	b1, err := orig.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := restored.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("states diverged after restore + further processing")
	}

	r1, r2 := orig.Result(), restored.Result()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("results diverged: %+v vs %+v", r1, r2)
	}
}

func TestEstimatorRestoreRejectsOtherSeed(t *testing.T) {
	orig := persistEstimator(t, 21)
	for _, e := range persistStream(5, 1000) {
		orig.Process(e)
	}
	blob, err := orig.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	other := persistEstimator(t, 22)
	if err := other.RestoreState(blob); err == nil {
		t.Fatal("restore under a different seed must fail")
	}
}

func TestEstimatorRestoreMalformed(t *testing.T) {
	orig := persistEstimator(t, 33)
	for _, e := range persistStream(7, 1500) {
		orig.Process(e)
	}
	blob, err := orig.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"header only", blob[:1]},
		{"truncated", blob[:len(blob)/3]},
		{"trailing garbage", append(append([]byte{}, blob...), 7)},
	} {
		dst := persistEstimator(t, 33)
		if err := dst.RestoreState(tc.data); err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
	}
}

func TestEstimatorStateTrivialCase(t *testing.T) {
	mk := func() *Estimator {
		est, err := NewEstimator(8, 100, 4, 4, Practical(), NewOracleFactory(), rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		if !est.trivial {
			t.Fatal("expected trivial-case estimator")
		}
		return est
	}
	blob, err := mk().AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	restored := mk()
	if err := restored.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	full := persistEstimator(t, 1)
	if err := full.RestoreState(blob); err == nil {
		t.Fatal("trivial blob into non-trivial construction must fail")
	}
}

// TestSmallSetDeadLayerRoundTrip drives a tiny SmallSet past its storage
// cap so some layers die, then checks the dead flags survive a round trip.
func TestSmallSetDeadLayerRoundTrip(t *testing.T) {
	orig := persistEstimator(t, 44)
	// A long skewed stream overflows the per-layer caps at small scale.
	for _, e := range persistStream(9, 20000) {
		orig.Process(e)
	}
	blob, err := orig.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	restored := persistEstimator(t, 44)
	if err := restored.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	b2, err := restored.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, b2) {
		t.Fatal("dead-layer state did not survive the round trip")
	}
	if r1, r2 := orig.Result(), restored.Result(); !reflect.DeepEqual(r1, r2) {
		t.Fatalf("results diverged: %+v vs %+v", r1, r2)
	}
}
