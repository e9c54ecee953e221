package main

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"streamcover"
)

// engineHelpers counts the goroutines running a batch-engine helper.
func engineHelpers() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "core.(*engine).helper(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestParallelOneIsSequential pins -parallel 1: with several CPUs
// available the in-process pass still starts no batch-engine helper, so
// it runs on the calling goroutine alone. The default (0, GOMAXPROCS)
// starts helpers, which shows the count can see them, and both answer
// alike.
func TestParallelOneIsSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const m, n, k = 200, 2000, 5
	rng := rand.New(rand.NewSource(1))
	edges := make([]streamcover.Edge, 20000)
	for i := range edges {
		edges[i] = streamcover.Edge{Set: uint32(rng.Intn(m)), Elem: uint32(rng.Intn(n))}
	}
	before := engineHelpers()

	seq, seqRes, _, err := ingest(edges, m, n, k, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	if got := engineHelpers() - before; got != 0 {
		t.Errorf("-parallel 1 started %d engine helpers, want none", got)
	}

	par, parRes, _, err := ingest(edges, m, n, k, 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	if engineHelpers() == before {
		t.Error("-parallel 0 started no engine helper at GOMAXPROCS 4")
	}
	if !reflect.DeepEqual(seqRes, parRes) {
		t.Errorf("-parallel 1 answered %+v, -parallel 0 %+v", seqRes, parRes)
	}
}
