// Command kcoverbench regenerates the repository's experiment tables — the
// reproduction of the paper's Table 1, Table 2 and the per-theorem
// experiments indexed in DESIGN.md §4 and recorded in EXPERIMENTS.md.
//
// Usage:
//
//	kcoverbench                 # run every experiment
//	kcoverbench -list           # list experiment IDs
//	kcoverbench -only E2,E4     # run a subset
//	kcoverbench -seed 7         # change the master seed
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"streamcover/internal/expt"
)

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	only := flag.String("only", "", "comma-separated experiment IDs to run (default all)")
	seed := flag.Int64("seed", 1, "master random seed")
	format := flag.String("format", "text", "output format: text|csv|markdown")
	flag.Parse()

	var render func(*expt.Table) error
	switch *format {
	case "text":
		render = func(t *expt.Table) error { return t.Render(os.Stdout) }
	case "csv":
		render = func(t *expt.Table) error { return t.RenderCSV(os.Stdout) }
	case "markdown":
		render = func(t *expt.Table) error { return t.RenderMarkdown(os.Stdout) }
	default:
		fmt.Fprintf(os.Stderr, "kcoverbench: unknown -format %q\n", *format)
		os.Exit(1)
	}

	specs := expt.All()
	if *list {
		for _, s := range specs {
			fmt.Printf("%-4s %s\n", s.ID, s.Name)
		}
		return
	}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}
	start := time.Now()
	ran := 0
	for _, s := range specs {
		if len(want) > 0 && !want[strings.ToUpper(s.ID)] {
			continue
		}
		t0 := time.Now()
		table, err := s.Run(*seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kcoverbench: %s: %v\n", s.ID, err)
			os.Exit(1)
		}
		if err := render(table); err != nil {
			fmt.Fprintf(os.Stderr, "kcoverbench: render %s: %v\n", s.ID, err)
			os.Exit(1)
		}
		if *format == "text" {
			fmt.Printf("   (%s in %v)\n\n", s.ID, time.Since(t0).Round(time.Millisecond))
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "kcoverbench: no experiments matched -only; try -list")
		os.Exit(1)
	}
	if *format == "text" {
		fmt.Printf("ran %d experiments in %v\n", ran, time.Since(start).Round(time.Millisecond))
	}
}
