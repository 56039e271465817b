// Command xsact is the end-to-end XSACT pipeline on the command line:
// load a dataset, run a keyword query, pick results, and print the
// comparison table of their Differentiation Feature Sets.
//
// Usage:
//
//	xsact -data reviews -query "tomtom gps" -list
//	xsact -data reviews -query "tomtom gps" -select 1,2 -L 6
//	xsact -data movies  -query "action revenge english" -alg multi-swap -format html
//	xsact -data /path/to/corpus.xml -query "..." -select all
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/feature"
	"repro/internal/table"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

func main() {
	var (
		data    = flag.String("data", "reviews", "dataset: reviews, retailer, movies, or a path to an XML file")
		seed    = flag.Int64("seed", 1, "seed for the built-in synthetic datasets")
		query   = flag.String("query", "", "keyword query (required)")
		list    = flag.Bool("list", false, "list results and exit (no comparison)")
		selects = flag.String("select", "all", "comma-separated 1-based result indices to compare, or 'all'")
		bound   = flag.Int("L", core.DefaultSizeBound, "comparison table size bound L (features per result)")
		thresh  = flag.Float64("x", core.DefaultThreshold, "differentiation threshold x")
		alg     = flag.String("alg", string(core.AlgMultiSwap), "DFS algorithm: single-swap, multi-swap, greedy, or top-k")
		format  = flag.String("format", "text", "table format: text, html, markdown, or csv")
		clean   = flag.Bool("clean", false, "spell-correct query keywords against the corpus vocabulary")
	)
	flag.Parse()

	if err := run(*data, *seed, *query, *list, *selects, *bound, *thresh, *alg, *format, *clean); err != nil {
		fmt.Fprintln(os.Stderr, "xsact:", err)
		os.Exit(1)
	}
}

func run(data string, seed int64, query string, list bool, selects string, bound int, thresh float64, alg, format string, clean bool) error {
	if query == "" {
		return fmt.Errorf("-query is required")
	}
	root, err := loadDataset(data, seed)
	if err != nil {
		return err
	}
	eng := xseek.New(root)
	var results []*xseek.Result
	if clean {
		var cleaned []string
		results, cleaned, err = eng.SearchCleaned(query)
		if err == nil {
			fmt.Printf("searching for: %s\n", strings.Join(cleaned, " "))
		}
	} else {
		results, err = eng.Search(query)
	}
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no results for %q", query)
	}

	if list {
		for i, r := range results {
			fmt.Printf("%2d. %s\n", i+1, xseek.DescribeResult(r, 4))
		}
		return nil
	}

	picked, err := pickResults(results, selects)
	if err != nil {
		return err
	}
	if len(picked) < 2 {
		return fmt.Errorf("comparison needs at least 2 results (got %d)", len(picked))
	}

	stats := make([]*feature.Stats, len(picked))
	for i, r := range picked {
		stats[i] = feature.Extract(r.Node, eng.Schema(), r.Label)
	}
	// Print the options the generator runs with: -L 0 and -x <= 0
	// select the defaults.
	opts := core.Options{SizeBound: bound, Threshold: thresh, Pad: true}.Normalized()
	dfss := core.Generate(core.Algorithm(alg), stats, opts)
	if dfss == nil {
		return fmt.Errorf("unknown algorithm %q", alg)
	}

	tbl := table.Build(dfss)
	out := bufio.NewWriter(os.Stdout)
	switch format {
	case "text":
		err = tbl.WriteText(out)
	case "html":
		err = tbl.WriteHTML(out)
	case "markdown", "md":
		err = tbl.WriteMarkdown(out)
	case "csv":
		err = tbl.WriteCSV(out)
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	if err == nil {
		err = out.Flush()
	}
	if err != nil {
		return err
	}
	fmt.Printf("\ntotal DoD = %d over %d results (algorithm %s, L=%d, x=%.0f%%)\n",
		core.TotalDoD(dfss, opts.Threshold), len(dfss), alg, opts.SizeBound, opts.Threshold*100)
	return nil
}

func loadDataset(data string, seed int64) (*xmltree.Node, error) {
	switch data {
	case "reviews":
		return dataset.ProductReviews(dataset.ReviewsConfig{Seed: seed}), nil
	case "retailer":
		return dataset.OutdoorRetailer(dataset.RetailerConfig{Seed: seed}), nil
	case "movies":
		return dataset.Movies(dataset.MoviesConfig{Seed: seed}), nil
	}
	f, err := os.Open(data)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// User-supplied files get generous but finite resource limits.
	return xmltree.ParseLimited(f, xmltree.Limits{MaxDepth: 10000, MaxNodes: 10_000_000})
}

func pickResults(results []*xseek.Result, selects string) ([]*xseek.Result, error) {
	if selects == "all" {
		return results, nil
	}
	var out []*xseek.Result
	for _, part := range strings.Split(selects, ",") {
		idx, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -select entry %q: %w", part, err)
		}
		if idx < 1 || idx > len(results) {
			return nil, fmt.Errorf("-select index %d out of range 1..%d", idx, len(results))
		}
		out = append(out, results[idx-1])
	}
	return out, nil
}
