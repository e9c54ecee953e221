package main

import (
	"testing"
	"time"
)

func TestLayerTimesSelfTime(t *testing.T) {
	spans := []span{
		{Name: "batch", Start: 0, End: 100, Parent: -1},
		{Name: "decode", Start: 10, End: 20, Parent: 0},
		{Name: "apply", Start: 30, End: 90, Parent: 0},
		{Name: "oracle", Start: 40, End: 60, Parent: 2},
		{Name: "oracle", Start: 65, End: 75, Parent: 2},
		{Name: "batch", Start: 200, End: 250, Parent: -1},
		{Name: "apply", Start: 210, End: 240, Parent: 5},
	}
	total, self := layerTimes(spans)
	want := map[string][2]time.Duration{
		// batch: 100 - (10 + 60) = 30 self, plus 50 - 30 = 20 for the second.
		"batch":  {150, 50},
		"decode": {10, 10},
		// apply: 60 - (20 + 10) = 30, plus 30 with no children.
		"apply":  {90, 60},
		"oracle": {30, 30},
	}
	for name, w := range want {
		if total[name] != w[0] || self[name] != w[1] {
			t.Errorf("%s: total %v self %v, want %v %v", name, total[name], self[name], w[0], w[1])
		}
	}
}

func TestLayerTimesOverlappingAndProtrudingChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 50, Parent: 0},
		{Name: "b", Start: 40, End: 70, Parent: 0},  // overlaps a: the union is 10..70
		{Name: "c", Start: 90, End: 130, Parent: 0}, // sticks out: only 90..100 counts
		{Name: "d", Start: 150, End: 160, Parent: 0},
	}
	_, self := layerTimes(spans)
	if got, want := self["root"], time.Duration(100-60-10); got != want {
		t.Errorf("root self time %v, want %v", got, want)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer(true)
	tr.batch = 7
	root := tr.begin("batch")
	child := tr.begin("apply")
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[0].Parent != -1 || tr.spans[1].Batch != 7 {
		t.Fatalf("spans %+v", tr.spans)
	}
	if tr.spans[0].End < tr.spans[1].End || tr.spans[1].Start < tr.spans[0].Start {
		t.Fatalf("child not inside parent: %+v", tr.spans)
	}
	off := newTracer(false)
	off.end(off.begin("batch"))
	if len(off.spans) != 0 {
		t.Fatalf("a tracer that is off recorded %d spans", len(off.spans))
	}
}
