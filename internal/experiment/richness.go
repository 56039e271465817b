package experiment

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/xseek"
)

// RichnessPoint measures DFS generation as results get feature-richer.
type RichnessPoint struct {
	ReviewsPerProduct int     // corpus knob driving feature richness
	AvgFeatures       float64 // mean distinct features per result
	AvgTypes          float64 // mean distinct feature types per result
	DoD               map[core.Algorithm]int
	Elapsed           map[core.Algorithm]time.Duration
}

// RichnessSweep grows the Product Reviews corpus's per-product review
// count, which enriches each result's feature statistics (more values
// per type, heavier tails), and measures DoD and generation time on a
// fixed query — the full paper's "vary the number of features m"
// experiment, reproduced through the corpus knob that controls m.
func RichnessSweep(seed int64, query string, algs []core.Algorithm, opts core.Options, reviewCounts []int) ([]RichnessPoint, error) {
	var out []RichnessPoint
	for _, rc := range reviewCounts {
		root := dataset.ProductReviews(dataset.ReviewsConfig{
			Seed:                seed,
			ProductsPerCategory: 6,
			MinReviews:          rc,
			MaxReviews:          rc,
		})
		eng := xseek.New(root)
		stats, err := ResultStats(eng, query)
		if err != nil {
			return nil, fmt.Errorf("experiment: richness %d: %w", rc, err)
		}
		p := RichnessPoint{
			ReviewsPerProduct: rc,
			DoD:               make(map[core.Algorithm]int),
			Elapsed:           make(map[core.Algorithm]time.Duration),
		}
		for _, s := range stats {
			p.AvgFeatures += float64(s.FeatureCount())
			p.AvgTypes += float64(s.TypeCount())
		}
		if len(stats) > 0 {
			p.AvgFeatures /= float64(len(stats))
			p.AvgTypes /= float64(len(stats))
		}
		for _, alg := range algs {
			start := time.Now()
			dfss := core.Generate(alg, stats, opts)
			p.Elapsed[alg] = time.Since(start)
			p.DoD[alg] = core.TotalDoD(dfss, opts.Threshold)
		}
		out = append(out, p)
	}
	return out, nil
}

// WriteRichness renders the sweep.
func WriteRichness(w io.Writer, title string, points []RichnessPoint) {
	fmt.Fprintln(w, title)
	if len(points) == 0 {
		return
	}
	var algs []core.Algorithm
	for a := range points[0].DoD {
		algs = append(algs, a)
	}
	sort.Slice(algs, func(i, j int) bool { return algs[i] < algs[j] })
	header := []string{"reviews/product", "avg features", "avg types"}
	for _, a := range algs {
		header = append(header, string(a)+" DoD", string(a)+" time")
	}
	rows := [][]string{header}
	for _, p := range points {
		row := []string{
			fmt.Sprintf("%d", p.ReviewsPerProduct),
			fmt.Sprintf("%.1f", p.AvgFeatures),
			fmt.Sprintf("%.1f", p.AvgTypes),
		}
		for _, a := range algs {
			row = append(row,
				fmt.Sprintf("%d", p.DoD[a]),
				fmt.Sprintf("%.4fs", p.Elapsed[a].Seconds()))
		}
		rows = append(rows, row)
	}
	writeAligned(w, rows)
}
