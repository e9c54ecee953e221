// Command kcover runs the paper's single-pass estimator/reporter on an
// edge-arrival stream file (the format kcovergen emits) and prints the
// coverage estimate, the reported k-cover, its exact coverage, and the
// space used — optionally alongside the offline greedy baseline.
//
// Usage:
//
//	kcovergen -family planted | kcover -k 40 -alpha 4
//	kcover -k 40 -alpha 8 -greedy stream.txt
//	kcover -server localhost:7600 -session crawl stream.txt   # feed the daemon, then query
//	kcover -server localhost:7600 -session crawl              # query only
//
// With -server, kcover talks to a kcoverd daemon instead of running the
// estimator in-process: a file argument is streamed into the named
// session first (created on demand with -k, -alpha, -seed); either way
// the session is then queried and the live estimate printed.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"streamcover"
	"streamcover/internal/client"
	"streamcover/internal/stream"
)

func main() {
	var (
		k         = flag.Int("k", 10, "cover budget")
		alpha     = flag.Float64("alpha", 4, "approximation target (>= 1)")
		seed      = flag.Int64("seed", 1, "random seed")
		greedy    = flag.Bool("greedy", false, "also run the offline greedy baseline")
		parallel  = flag.Int("parallel", 0, "batch-engine workers (0 = GOMAXPROCS, 1 = sequential; same result)")
		breakdown = flag.Bool("breakdown", false, "print per-component space breakdown")
		server    = flag.String("server", "", "kcoverd address: ingest the input there and query the live session")
		session   = flag.String("session", "kcovergen", "kcoverd session name (with -server)")
	)
	flag.Parse()

	if *server != "" {
		serverMode(*server, *session, *k, *alpha, *seed)
		return
	}

	in := os.Stdin
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	} else if flag.NArg() > 1 {
		fatal(fmt.Errorf("at most one input file, got %d args", flag.NArg()))
	}

	slice, m, n, err := stream.ReadAuto(in)
	if err != nil {
		fatal(err)
	}
	edges := make([]streamcover.Edge, 0, slice.Len())
	for _, e := range slice.Edges() {
		edges = append(edges, streamcover.Edge{Set: e.Set, Elem: e.Elem})
	}

	est, res, elapsed, err := ingest(edges, m, n, *k, *alpha, *seed, *parallel)
	if err != nil {
		fatal(err)
	}
	defer est.Close()

	fmt.Printf("stream: m=%d n=%d edges=%d\n", m, n, len(edges))
	fmt.Printf("estimate: %.1f (feasible=%v)\n", res.Coverage, res.Feasible)
	fmt.Printf("space: %d words (%d bytes)\n", res.SpaceWords, res.SpaceWords*8)
	fmt.Printf("time: %v (%.0f edges/s)\n", elapsed.Round(time.Millisecond),
		float64(len(edges))/elapsed.Seconds())
	if len(res.SetIDs) > 0 {
		cov, err := streamcover.Coverage(edges, m, n, res.SetIDs)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("reported: %d sets covering %d elements", len(res.SetIDs), cov)
		if len(res.SetIDs) <= 20 {
			fmt.Printf(" %v", res.SetIDs)
		}
		fmt.Println()
	}
	if *breakdown {
		br := est.SpaceBreakdown()
		keys := make([]string, 0, len(br))
		for part := range br {
			keys = append(keys, part)
		}
		sort.Strings(keys)
		for _, part := range keys {
			fmt.Printf("  space[%s]: %d words\n", part, br[part])
		}
	}
	if *greedy {
		ids, cov, err := streamcover.GreedyCover(edges, m, n, *k)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("offline greedy: %d sets covering %d elements\n", len(ids), cov)
	}
}

// ingest runs the estimator in process: it feeds edges to a new estimator
// on parallel batch-engine workers (0 selects GOMAXPROCS, 1 runs on the
// calling goroutine alone) and returns it, its result and how long the
// pass and the result took. The caller closes the estimator.
func ingest(edges []streamcover.Edge, m, n, k int, alpha float64, seed int64, parallel int) (*streamcover.Estimator, streamcover.Result, time.Duration, error) {
	est, err := streamcover.NewEstimator(m, n, k, alpha, streamcover.WithSeed(seed), streamcover.WithParallelism(parallel))
	if err != nil {
		return nil, streamcover.Result{}, 0, err
	}
	start := time.Now()
	if err := est.ProcessAll(edges); err != nil {
		est.Close()
		return nil, streamcover.Result{}, 0, err
	}
	res := est.Result()
	return est, res, time.Since(start), nil
}

// serverMode feeds an optional input file into a kcoverd session and
// prints the session's live estimate.
func serverMode(addr, name string, k int, alpha float64, seed int64) {
	c, err := client.Dial(addr)
	if err != nil {
		fatal(err)
	}
	defer c.Close()

	sess := c.Session(name)
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		slice, m, n, err := stream.ReadAuto(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		sess, err = c.Create(name, m, n, k, alpha, seed)
		if err != nil {
			fatal(err)
		}
		edges := make([]streamcover.Edge, slice.Len())
		for i, e := range slice.Edges() {
			edges[i] = streamcover.Edge(e)
		}
		start := time.Now()
		if err := sess.Send(edges); err != nil {
			fatal(err)
		}
		if err := sess.Flush(); err != nil {
			fatal(err)
		}
		elapsed := time.Since(start)
		fmt.Printf("ingested: %d edges into session %q (%v, %.0f edges/s)\n",
			len(edges), name, elapsed.Round(time.Millisecond),
			float64(len(edges))/elapsed.Seconds())
	} else if flag.NArg() > 1 {
		fatal(fmt.Errorf("at most one input file, got %d args", flag.NArg()))
	}

	res, err := sess.Query()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("session: %s@%s edges=%d\n", name, addr, res.Edges)
	fmt.Printf("estimate: %.1f (feasible=%v)\n", res.Coverage, res.Feasible)
	fmt.Printf("space: %d words (%d bytes)\n", res.SpaceWords, res.SpaceWords*8)
	if len(res.SetIDs) > 0 {
		fmt.Printf("reported: %d sets", len(res.SetIDs))
		if len(res.SetIDs) <= 20 {
			fmt.Printf(" %v", res.SetIDs)
		}
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kcover:", err)
	os.Exit(1)
}
