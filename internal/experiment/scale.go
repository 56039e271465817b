package experiment

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/feature"
)

// ScalePoint measures DFS generation at one result-set size.
type ScalePoint struct {
	Results int
	DoD     map[core.Algorithm]int
	Elapsed map[core.Algorithm]time.Duration
}

// ScaleSweep measures how the algorithms behave as the number of
// compared results grows: the same statistics list truncated to
// increasing prefixes. This exposes the paper's Figure 4(b) crossover
// — single-swap is cheaper on small comparisons, while multi-swap's
// bigger steps converge in fewer rounds and win on large ones.
func ScaleSweep(stats []*feature.Stats, algs []core.Algorithm, opts core.Options, sizes []int) []ScalePoint {
	var out []ScalePoint
	for _, n := range sizes {
		if n > len(stats) {
			n = len(stats)
		}
		p := ScalePoint{
			Results: n,
			DoD:     make(map[core.Algorithm]int),
			Elapsed: make(map[core.Algorithm]time.Duration),
		}
		subset := stats[:n]
		for _, alg := range algs {
			start := time.Now()
			dfss := core.Generate(alg, subset, opts)
			p.Elapsed[alg] = time.Since(start)
			p.DoD[alg] = core.TotalDoD(dfss, opts.Threshold)
		}
		out = append(out, p)
		if n == len(stats) {
			break
		}
	}
	return out
}

// WriteScale renders a scale sweep with both DoD and time columns.
func WriteScale(w io.Writer, title string, points []ScalePoint) {
	fmt.Fprintln(w, title)
	if len(points) == 0 {
		return
	}
	var algs []core.Algorithm
	for a := range points[0].DoD {
		algs = append(algs, a)
	}
	sort.Slice(algs, func(i, j int) bool { return algs[i] < algs[j] })
	header := []string{"results"}
	for _, a := range algs {
		header = append(header, string(a)+" DoD", string(a)+" time")
	}
	rows := [][]string{header}
	for _, p := range points {
		row := []string{fmt.Sprintf("%d", p.Results)}
		for _, a := range algs {
			row = append(row,
				fmt.Sprintf("%d", p.DoD[a]),
				fmt.Sprintf("%.4fs", p.Elapsed[a].Seconds()))
		}
		rows = append(rows, row)
	}
	writeAligned(w, rows)
}
