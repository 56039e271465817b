// Command xsact-bench regenerates the paper's evaluation: Figure 4(a)
// (DoD quality per query) and Figure 4(b) (processing time per query)
// over the IMDB-style movie corpus, plus the ablation sweeps (size
// bound L, threshold x) and the extension experiments: every generator
// head to head (algs), brand-focus recovery (focus), DoD and time
// against result richness (richness) and against the number of
// compared results (scale). Serving performance is measured by the
// separate benchmark in bench/.
//
// Usage:
//
//	xsact-bench [-fig 4a|4b|sweeps|algs|focus|richness|scale|all] [-movies N] [-seed S] [-L bound] [-x threshold]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiment"
	"repro/internal/xseek"
)

func main() {
	var (
		fig    = flag.String("fig", "all", "which output to produce: "+figures)
		movies = flag.Int("movies", 300, "movie corpus size")
		seed   = flag.Int64("seed", 1, "corpus seed")
		bound  = flag.Int("L", 10, "DFS size bound L")
		thresh = flag.Float64("x", 0.10, "differentiation threshold x")
	)
	flag.Parse()

	if err := run(*fig, *movies, *seed, *bound, *thresh); err != nil {
		fmt.Fprintln(os.Stderr, "xsact-bench:", err)
		os.Exit(1)
	}
}

// figures lists every -fig value run accepts.
const figures = "4a, 4b, sweeps, algs, focus, richness, scale, or all"

func run(fig string, movies int, seed int64, bound int, thresh float64) error {
	root := dataset.Movies(dataset.MoviesConfig{Seed: seed, Movies: movies})
	opts := core.Options{SizeBound: bound, Threshold: thresh}
	algs := []core.Algorithm{core.AlgSingleSwap, core.AlgMultiSwap}

	switch fig {
	case "algs":
		// Extension experiment: all deterministic generators head to
		// head on the benchmark workload (top-k = independent
		// snippets, greedy = coordinated global greedy).
		all := []core.Algorithm{core.AlgTopK, core.AlgGreedy, core.AlgSingleSwap, core.AlgMultiSwap}
		rep, err := experiment.Run(root, dataset.MovieQueries(), all, opts)
		if err != nil {
			return err
		}
		rep.WriteDoDTable(os.Stdout)
		fmt.Println()
		rep.WriteTimeTable(os.Stdout)
		return nil
	case "focus":
		all := []core.Algorithm{core.AlgTopK, core.AlgGreedy, core.AlgSingleSwap, core.AlgMultiSwap}
		for _, l := range []int{3, 4, 5, 6, 8} {
			fr, err := experiment.RunFocusRecovery(seed, "men jackets", all,
				core.Options{SizeBound: l, Threshold: thresh, Pad: true})
			if err != nil {
				return err
			}
			experiment.WriteFocusRecovery(os.Stdout, fmt.Sprintf(
				"Focus recovery at L=%d — does the table reveal each brand's specialty? (query 'men jackets')", l), fr)
			fmt.Println()
		}
		return nil
	case "richness":
		pts, err := experiment.RichnessSweep(seed, "gps", algs, opts, []int{5, 10, 20, 40, 80, 160})
		if err != nil {
			return err
		}
		experiment.WriteRichness(os.Stdout,
			"Richness — DoD and time vs reviews per product (query 'gps')", pts)
		return nil
	case "scale":
		// The Figure 4(b) crossover at scale: broad 2-keyword queries
		// return ~70 results; the sweep truncates to growing prefixes.
		eng := xseek.New(root)
		stats, err := experiment.ResultStats(eng, "action revenge")
		if err != nil {
			return err
		}
		experiment.WriteScale(os.Stdout,
			"Scale — DoD and time vs number of compared results (query 'action revenge')",
			experiment.ScaleSweep(stats, algs, opts, []int{5, 10, 20, 40, 60, 80}))
		return nil
	case "4a", "4b", "all":
		rep, err := experiment.Run(root, dataset.MovieQueries(), algs, opts)
		if err != nil {
			return err
		}
		if fig == "4a" || fig == "all" {
			rep.WriteDoDTable(os.Stdout)
			fmt.Println()
		}
		if fig == "4b" || fig == "all" {
			rep.WriteTimeTable(os.Stdout)
			fmt.Println()
		}
		if fig != "all" {
			return nil
		}
	case "sweeps":
	default:
		return fmt.Errorf("unknown -fig %q (want %s)", fig, figures)
	}

	// Ablation sweeps. The size-bound sweep runs on the movie
	// workload's first query; the threshold sweep runs on the Product
	// Reviews corpus, whose relative frequencies are real percentages
	// (movie-level features are 0-or-1, which makes x a no-op there).
	eng := xseek.New(root)
	stats, err := experiment.ResultStats(eng, dataset.MovieQueries()[0])
	if err != nil {
		return err
	}
	experiment.WriteSweep(os.Stdout,
		"Ablation — DoD vs size bound L (movies QM1)", "L",
		experiment.SizeBoundSweep(stats, algs, thresh, []int{2, 4, 6, 8, 10, 14, 20}))
	fmt.Println()

	reviews := xseek.New(dataset.ProductReviews(dataset.ReviewsConfig{Seed: seed}))
	rstats, err := experiment.ResultStats(reviews, "gps")
	if err != nil {
		return err
	}
	experiment.WriteSweep(os.Stdout,
		"Ablation — DoD vs differentiation threshold x (reviews, query 'gps')", "x",
		experiment.ThresholdSweep(rstats, algs, bound, []float64{0.02, 0.05, 0.10, 0.25, 0.50, 1.0, 2.0}))
	return nil
}
