package streamcover

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// TestProcessBufferFlushes pins the buffered Process: runs of Process
// calls of random length, some longer than processRun, interleave at
// random with every call that reads or moves state, valid and rejected
// batches included. Each call except Process must leave the column
// buffer empty, Process must keep it below processRun, and after every
// step the estimator must report the Edges and Encode bytes of a twin
// fed the same accepted prefix through ProcessColumns alone.
func TestProcessBufferFlushes(t *testing.T) {
	const m, n, k, alpha = 60, 500, 5, 4.0
	rng := rand.New(rand.NewSource(17))
	build := func() *Estimator {
		est, err := NewEstimator(m, n, k, alpha, WithSeed(3), WithParallelism(2))
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	edges := func(count int) []Edge { return snapEdges(rng.Int63(), m, n, count) }
	cols := func(es []Edge) (sets, elems []uint32) {
		for _, e := range es {
			sets, elems = append(sets, e.Set), append(elems, e.Elem)
		}
		return sets, elems
	}
	// withBad returns es with an out-of-range edge at a random index, and
	// that index.
	withBad := func(es []Edge) ([]Edge, int) {
		i := rng.Intn(len(es) + 1)
		bad := Edge{Set: m, Elem: 0}
		if rng.Intn(2) == 0 {
			bad = Edge{Set: 0, Elem: n}
		}
		return append(append(append([]Edge(nil), es[:i]...), bad), es[i:]...), i
	}
	// buffered returns an estimator and its twin after count edges, fed
	// through Process and ProcessColumns; fewer than processRun, so the
	// former's stay buffered.
	buffered := func(count int) (*Estimator, *Estimator) {
		est, twin := build(), build()
		batch := edges(count)
		for _, e := range batch {
			if err := est.Process(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := twin.ProcessColumns(cols(batch)); err != nil {
			t.Fatal(err)
		}
		return est, twin
	}
	encode := func(e *Estimator) []byte {
		b, err := e.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	est, twin := build(), build()
	defer est.Close()
	defer twin.Close()
	ops := map[string]func(t *testing.T){
		"Result": func(t *testing.T) {
			if got, want := est.Result(), twin.Result(); !reflect.DeepEqual(got, want) {
				t.Errorf("Result %+v, twin %+v", got, want)
			}
		},
		"SpaceWords": func(t *testing.T) {
			if got, want := est.SpaceWords(), twin.SpaceWords(); got != want {
				t.Errorf("SpaceWords %d, twin %d", got, want)
			}
		},
		"SpaceBreakdown": func(t *testing.T) {
			if got, want := est.SpaceBreakdown(), twin.SpaceBreakdown(); !reflect.DeepEqual(got, want) {
				t.Errorf("SpaceBreakdown %v, twin %v", got, want)
			}
		},
		"Encode": func(t *testing.T) {
			if !bytes.Equal(encode(est), encode(twin)) {
				t.Error("Encode differs from the twin's")
			}
		},
		"Clone": func(t *testing.T) {
			c, err := est.Clone()
			if err != nil {
				t.Fatal(err)
			}
			if c.Edges() != twin.Edges() || !bytes.Equal(encode(c), encode(twin)) {
				t.Errorf("clone of %d edges differs from the twin of %d", c.Edges(), twin.Edges())
			}
		},
		"Merge": func(t *testing.T) {
			other, otherTwin := buffered(1 + rng.Intn(processRun-1))
			if err := est.Merge(other); err != nil {
				t.Fatal(err)
			}
			if err := twin.Merge(otherTwin); err != nil {
				t.Fatal(err)
			}
			if len(other.sets) != 0 {
				t.Errorf("Merge left %d edges in its argument's buffer", len(other.sets))
			}
		},
		"MergedInto": func(t *testing.T) {
			dst, dstTwin := buffered(1 + rng.Intn(processRun-1))
			if err := dst.Merge(est); err != nil {
				t.Fatal(err)
			}
			if err := dstTwin.Merge(twin); err != nil {
				t.Fatal(err)
			}
			if dst.Edges() != dstTwin.Edges() || !bytes.Equal(encode(dst), encode(dstTwin)) {
				t.Error("an estimator merged with this one differs from one merged with the twin")
			}
		},
		"Close": func(t *testing.T) { est.Close() },
		"ProcessAll": func(t *testing.T) {
			batch := edges(rng.Intn(3000))
			if rng.Intn(2) == 0 {
				var i int
				batch, i = withBad(batch)
				if err := est.ProcessAll(batch); err == nil {
					t.Fatal("ProcessAll accepted an out-of-range edge")
				}
				batch = batch[:i]
			} else if err := est.ProcessAll(batch); err != nil {
				t.Fatal(err)
			}
			if err := twin.ProcessColumns(cols(batch)); err != nil {
				t.Fatal(err)
			}
		},
		"ProcessBatch": func(t *testing.T) {
			batch := edges(rng.Intn(3000))
			if rng.Intn(2) == 0 {
				bad, _ := withBad(batch)
				if err := est.ProcessBatch(bad); err == nil {
					t.Fatal("ProcessBatch accepted an out-of-range edge")
				}
				return
			}
			if err := est.ProcessBatch(batch); err != nil {
				t.Fatal(err)
			}
			if err := twin.ProcessColumns(cols(batch)); err != nil {
				t.Fatal(err)
			}
		},
		"ProcessColumns": func(t *testing.T) {
			batch := edges(rng.Intn(3000))
			if rng.Intn(2) == 0 {
				bad, _ := withBad(batch)
				if err := est.ProcessColumns(cols(bad)); err == nil {
					t.Fatal("ProcessColumns accepted an out-of-range edge")
				}
				return
			}
			if err := est.ProcessColumns(cols(batch)); err != nil {
				t.Fatal(err)
			}
			if err := twin.ProcessColumns(cols(batch)); err != nil {
				t.Fatal(err)
			}
		},
	}
	var order []string
	for name := range ops {
		order = append(order, name, name, name)
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for step, name := range order {
		// A run of Process calls, up to 1.25 runs long, then the call.
		run := edges(1 + rng.Intn(processRun*5/4))
		for _, e := range run {
			if err := est.Process(e); err != nil {
				t.Fatal(err)
			}
			if len(est.sets) >= processRun {
				t.Fatalf("step %d: Process buffered %d edges, the run is %d", step, len(est.sets), processRun)
			}
		}
		if err := twin.ProcessColumns(cols(run)); err != nil {
			t.Fatal(err)
		}
		t.Run(name, ops[name])
		if len(est.sets) != 0 {
			t.Fatalf("step %d: %s left %d edges buffered", step, name, len(est.sets))
		}
		if est.Edges() != twin.Edges() {
			t.Fatalf("step %d (%s): %d edges, twin %d", step, name, est.Edges(), twin.Edges())
		}
		if !bytes.Equal(encode(est), encode(twin)) {
			t.Fatalf("step %d (%s): Encode differs from the twin's", step, name)
		}
	}
}
