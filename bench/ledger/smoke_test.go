package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// toySpecs shrinks every workload to a size that runs in about a second
// while keeping its shape: the loop, sessions, eviction and restarts.
func toySpecs() []spec {
	var out []spec
	for _, sp := range workloads {
		switch sp.Name {
		case bulk:
			sp.M, sp.N, sp.K, sp.Alpha = 80, 1000, 5, 4
			sp.Batch, sp.PreloadPerSession, sp.PreloadBatch = 512, 4096, 512
			sp.ClosedLoopRate, sp.IdleQueries, sp.MaxPending = 20_000, 3, 4
		case paced:
			sp.Sessions, sp.M, sp.N, sp.K, sp.Alpha = 6, 30, 200, 3, 2
			sp.Batch, sp.Rate, sp.QueryRate = 128, 8_000, 20
			sp.MemBudget = 1 // keeps only the hottest session resident
		case mix:
			sp.M, sp.N, sp.K, sp.Alpha = 60, 500, 5, 4
			sp.Batch, sp.PreloadPerSession, sp.PreloadBatch = 256, 5000, 1024
			sp.Rate, sp.QueryRate = 10_000, 20
		case crash:
			sp.M, sp.N, sp.K, sp.Alpha = 100, 1000, 5, 4
			sp.Batch, sp.PreloadPerSession, sp.PreloadBatch = 1024, 5000, 1024
			sp.Tail, sp.PostWrites = 3000, 2
		}
		out = append(out, sp)
	}
	return out
}

// TestSmokeEveryWorkload runs every workload at toy size, untraced and
// traced, against a kcoverd freshly built from this tree: every
// correctness check must pass and every declared metric must come out.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs kcoverd")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	bin := filepath.Join(out, "kcoverd")
	if err := buildKcoverd(root, bin); err != nil {
		t.Fatal(err)
	}
	for _, sp := range toySpecs() {
		for _, traced := range []bool{false, true} {
			ok, err := runOne(sp, bin, out, 1, 1, traced)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", sp.Name, traced, err)
			}
			if !ok {
				t.Errorf("%s (traced %v): a correctness check failed", sp.Name, traced)
			}
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which declares
// the benchmark's workloads and metrics, in step with the tables the
// ledger reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the ledger %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, ledger %q", i, w.Name, workloads[i].Name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the ledger %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, ledger %+v", kind, i, m, d)
			}
			if bounded && (m.Bound == nil || *m.Bound != d.Bound) {
				t.Errorf("%s %s: BENCHMARK.json bound %v, ledger %v", kind, m.Name, m.Bound, d.Bound)
			}
			if !bounded && m.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

// TestLayerMappingNamesExist checks that every layer metric names the
// workloads it is read on, and that what it should move is an end-to-end
// metric or a timing.
func TestLayerMappingNamesExist(t *testing.T) {
	figures := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), timings...) {
		figures[d.Name] = true
	}
	for _, d := range layerMetrics {
		if len(d.On) == 0 {
			t.Errorf("%s names no workload", d.Name)
		}
		for _, w := range d.On {
			if _, ok := workloadByName(w); !ok && w != all {
				t.Errorf("%s: unknown workload %q", d.Name, w)
			}
		}
		for _, m := range d.Moves {
			if !figures[m] {
				t.Errorf("%s: moves %q, which is neither an end-to-end metric nor a timing", d.Name, m)
			}
		}
	}
}
