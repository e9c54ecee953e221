package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// comparePairs is how many interleaved base/head pairs -compare runs:
// the claim rule below needs at least ten.
const comparePairs = 10

// runCompare is the developer's A/B runner. It exports rev into a
// temporary tree, builds kcoverd from it and from the working tree, and
// runs each workload comparePairs times on both binaries with identical
// benchmark code and inputs, alternating which side goes first. Pair i
// uses seed+i. It compares the end-to-end metrics and the timings, which
// interleaved pairs can judge although they carry no bound; the layer
// metrics come from code linked into this binary, so they are not
// compared.
func runCompare(root, out, rev string, specs []spec, seed int64, secs float64) error {
	dir := filepath.Join(out, "compare")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	base := filepath.Join(dir, "tree")
	if err := exportRev(root, rev, base); err != nil {
		return err
	}
	bins := map[string]string{"base": filepath.Join(dir, "kcoverd-base"), "head": filepath.Join(dir, "kcoverd-head")}
	if err := buildKcoverd(base, bins["base"]); err != nil {
		return err
	}
	if err := buildKcoverd(root, bins["head"]); err != nil {
		return err
	}
	for _, sp := range specs {
		vals := map[string]map[string][]float64{"base": {}, "head": {}}
		failed := map[string]int{}
		for i := 0; i < comparePairs; i++ {
			in := generate(sp, seed+int64(i), secs)
			order := []string{"base", "head"}
			if i%2 == 1 {
				order = []string{"head", "base"}
			}
			for _, side := range order {
				work, err := os.MkdirTemp(dir, "run-")
				if err != nil {
					return err
				}
				r, err := runWorkload(env{bin: bins[side], dir: work, seconds: secs, setups: 3}, sp, in)
				os.RemoveAll(work)
				if err != nil {
					return fmt.Errorf("%s pair %d (%s): %w", sp.Name, i, side, err)
				}
				failed[side] += r.failed
				if r.failed > 0 {
					fmt.Printf("%s pair %d (%s): %d of %d operations failed: %s\n", sp.Name, i, side, r.failed, r.attempted, strings.Join(r.errs, "; "))
				}
				for k, v := range runMetrics(r) {
					vals[side][k] = append(vals[side][k], v)
				}
			}
			fmt.Printf("%s: pair %d/%d done\n", sp.Name, i+1, comparePairs)
		}
		printComparison(sp.Name, rev, vals["base"], vals["head"], failed["base"], failed["head"])
	}
	return nil
}

// printComparison prints, per metric, both sides' medians and quartiles,
// the share of pairs the head won, and the verdict of the rule a claimed
// gain must pass: the head wins at least nine tenths of the pairs (ties
// count for neither), the medians differ by more than the base's
// interquartile range, and the head failed no more operations than the
// base. For an end-to-end metric, a head worse than the base by more than
// the metric's bound is a regression, and a base spread wider than the
// bound leaves the metric unresolved. A timing has no bound: it is a
// loss when the base passes the gain rule against the head.
func printComparison(workload, rev string, base, head map[string][]float64, baseFailed, headFailed int) {
	fmt.Printf("\n%s: %s (base) vs working tree (head), %d pairs; failed operations: base %d, head %d\n",
		workload, rev, comparePairs, baseFailed, headFailed)
	fmt.Printf("%-14s %-34s %-34s %-6s %s\n", "metric", "base median [q1, q3]", "head median [q1, q3]", "wins", "verdict")
	for _, d := range append(append([]metricDef(nil), endToEnd...), timings...) {
		b, h := base[d.Name], head[d.Name]
		bq1, bmed, bq3 := quartiles(b)
		hq1, hmed, hq3 := quartiles(h)
		better := func(x, y float64) bool {
			if d.Better == "higher" {
				return x > y
			}
			return x < y
		}
		wins, losses := 0, 0
		for i := range b {
			if i < len(h) && better(h[i], b[i]) {
				wins++
			}
			if i < len(h) && better(b[i], h[i]) {
				losses++
			}
		}
		apart := abs(hmed-bmed) > bq3-bq1
		worsening := (bmed - hmed) / bmed
		if d.Better == "lower" {
			worsening = -worsening
		}
		var verdict string
		switch {
		case float64(wins) >= 0.9*float64(len(b)) && apart && headFailed > baseFailed:
			verdict = "no gain (more failures)"
		case float64(wins) >= 0.9*float64(len(b)) && apart:
			verdict = "gain"
		case d.Bound == 0 && float64(losses) >= 0.9*float64(len(b)) && apart:
			verdict = "loss"
		case d.Bound == 0:
			verdict = "no change shown (timing, no bound)"
		case (bq3-bq1)/bmed > d.Bound:
			verdict = "unresolved (base spread wider than bound)"
		case worsening > d.Bound:
			verdict = "regression"
		default:
			verdict = "no regression (within bound)"
		}
		fmt.Printf("%-14s %-34s %-34s %2d/%-3d %s\n", d.Name,
			fmt.Sprintf("%.4g [%.4g, %.4g]", bmed, bq1, bq3),
			fmt.Sprintf("%.4g [%.4g, %.4g]", hmed, hq1, hq3), wins, len(b), verdict)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// exportRev writes the tree of rev into dst with `git archive | tar -x`.
// Unlike a git worktree, this leaves the repository's metadata untouched.
func exportRev(root, rev, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	archive := exec.Command("git", "archive", "--format=tar", rev)
	archive.Dir = root
	archive.Stderr = os.Stderr
	untar := exec.Command("tar", "-x", "-C", dst)
	untar.Stderr = os.Stderr
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	if err := archive.Start(); err != nil {
		return fmt.Errorf("git archive %s: %w", rev, err)
	}
	untarErr := untar.Run()
	if err := archive.Wait(); err != nil {
		return fmt.Errorf("git archive %s: %w", rev, err)
	}
	if untarErr != nil {
		return fmt.Errorf("unpacking %s: %w", rev, untarErr)
	}
	return nil
}
