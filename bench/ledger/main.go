// Command ledger is streamcover's benchmark: one command that drives a
// freshly built kcoverd through seeded workloads and reports end-to-end
// metrics, or, traced, the per-layer costs behind them.
//
// Run it from the repository root through bench/run.sh, which builds it
// with a build cache inside the checkout:
//
//	bash bench/run.sh --workload bulk-ingest --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh --workload all --seed 7 --trace 1
//	bash bench/run.sh --workload query-mix --compare HEAD~1
//
// The last line of standard output is one JSON object per workload with
// the keys correct, attempted, failed and metrics. The exit status is
// non-zero when a correctness check failed or the run could not be made.
// See bench/README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// buildDir holds everything the benchmark builds and writes, relative to
// the repository root.
const buildDir = ".bench_build"

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workload = flag.String("workload", "all", "workload to run: bulk-ingest, paced-tenants, query-mix, crash-recover or all")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		secs     = flag.Float64("seconds", 12, "length of each run's timed window, in seconds")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics instead of end-to-end ones")
		compare  = flag.String("compare", "", "git revision to A/B against the working tree on end-to-end metrics and timings")
	)
	flag.Parse()
	if *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "ledger: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	var specs []spec
	if *workload == all {
		specs = workloads
	} else if sp, ok := workloadByName(*workload); ok {
		specs = []spec{sp}
	} else {
		fmt.Fprintf(os.Stderr, "ledger: unknown workload %q\n", *workload)
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 1
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "kcoverd")); err != nil {
		fmt.Fprintln(os.Stderr, "ledger: run from the repository root (no cmd/kcoverd here)")
		return 1
	}
	out := filepath.Join(root, buildDir)
	if *compare != "" {
		if err := runCompare(root, out, *compare, specs, *seed, *secs); err != nil {
			fmt.Fprintln(os.Stderr, "ledger:", err)
			return 1
		}
		return 0
	}
	bin := filepath.Join(out, "kcoverd")
	if err := buildKcoverd(root, bin); err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 1
	}
	status := 0
	for _, sp := range specs {
		ok, err := runOne(sp, bin, out, *seed, *secs, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ledger: %s: %v\n", sp.Name, err)
			return 1
		}
		if !ok {
			status = 1
		}
	}
	return status
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload, prints its report and result line, and says
// whether every correctness check passed. An error means no result could
// be produced.
func runOne(sp spec, bin, out string, seed int64, secs float64, traced bool) (bool, error) {
	in := generate(sp, seed, secs)
	work, err := os.MkdirTemp(out, "run-"+sp.Name+"-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(work)
	fmt.Printf("workload %s: %s loop, seed %d, %g s window, traced %v\n", sp.Name, sp.Loop, seed, secs, traced)
	fmt.Printf("why: %s\n", sp.Why)
	fmt.Printf("input_sha256 %s\n", in.SHA256)

	e := env{bin: bin, dir: work, seconds: secs, setups: 3}
	if traced {
		e.setups = 1
	}
	r, err := runWorkload(e, sp, in)
	if err != nil {
		return false, err
	}
	fig := runMetrics(r)
	for _, n := range sampleNotes(r) {
		fmt.Println(n)
	}
	defs, values := endToEnd, fig
	if traced {
		var feed []batch
		feed = append(feed, in.Preload...)
		var walDirs []string
		if sp.Loop == "restart" {
			feed = append(feed, in.Tail...)
			walDirs, err = filepath.Glob(filepath.Join(r.pristine, "*", "wal"))
			if err != nil {
				return false, err
			}
		} else {
			feed = append(feed, in.Timed...)
		}
		l, err := traceReplay(in, feed, filepath.Join(work, "trace"), walDirs, seconds(secs))
		if err != nil {
			return false, fmt.Errorf("traced replay: %w", err)
		}
		var notes []string
		values, notes = perLayerMetrics(sp, r, l, fig)
		defs = perLayer
		for _, n := range append([]string{l.note}, notes...) {
			fmt.Println(n)
		}
		spanFile := filepath.Join(out, "trace", fmt.Sprintf("%s-seed%d.jsonl", sp.Name, seed))
		if err := writeSpans(spanFile, l.spans); err != nil {
			return false, err
		}
		fmt.Printf("spans: %d written to %s\n", len(l.spans), spanFile)
		for _, d := range endToEnd {
			fmt.Printf("(end-to-end, traced run) %-40s %14.4f %s\n", d.Name, fig[d.Name], d.Unit)
		}
	} else {
		for _, d := range timings {
			fmt.Printf("(timing, no bound) %-46s %14.4f %s\n", d.Name, clean(fig[d.Name]), d.Unit)
		}
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := clean(values[d.Name])
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		line := fmt.Sprintf("%-48s %14.4f %s", d.Name, v, d.Unit)
		if m := d.mapping(); m != "" {
			line += "  (" + m + ")"
		}
		fmt.Println(line)
	}
	for _, msg := range r.errs {
		fmt.Println("FAILED:", msg)
	}
	if rss, err := procStatusMB(os.Getpid(), "VmHWM"); err == nil {
		fmt.Printf("benchmark process peak RSS %.0f MB\n", rss)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct, nil
}
