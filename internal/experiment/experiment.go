package experiment

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// QueryRun is the measurement of one query under several algorithms.
type QueryRun struct {
	ID         string // e.g. "QM1"
	Query      string
	NumResults int
	DoD        map[core.Algorithm]int
	Elapsed    map[core.Algorithm]time.Duration
}

// Report is a complete Figure-4-style experiment: one row per query.
type Report struct {
	Runs       []QueryRun
	Algorithms []core.Algorithm
	Opts       core.Options
}

// ResultStats runs a query and extracts per-result feature statistics
// — the common prefix of every experiment.
func ResultStats(eng *xseek.Engine, query string) ([]*feature.Stats, error) {
	results, err := eng.Search(query)
	if err != nil {
		return nil, fmt.Errorf("experiment: query %q: %w", query, err)
	}
	stats := make([]*feature.Stats, len(results))
	for i, r := range results {
		stats[i] = feature.Extract(r.Node, eng.Schema(), r.Label)
	}
	return stats, nil
}

// Run executes every query with every algorithm over the document.
// Queries are labelled QM1..QMn in order, matching the paper's axis.
func Run(root *xmltree.Node, queries []string, algs []core.Algorithm, opts core.Options) (*Report, error) {
	eng := xseek.New(root)
	rep := &Report{Algorithms: algs, Opts: opts}
	for qi, q := range queries {
		stats, err := ResultStats(eng, q)
		if err != nil {
			return nil, err
		}
		run := QueryRun{
			ID:         fmt.Sprintf("QM%d", qi+1),
			Query:      q,
			NumResults: len(stats),
			DoD:        make(map[core.Algorithm]int),
			Elapsed:    make(map[core.Algorithm]time.Duration),
		}
		for _, alg := range algs {
			start := time.Now()
			dfss := core.Generate(alg, stats, opts)
			run.Elapsed[alg] = time.Since(start)
			run.DoD[alg] = core.TotalDoD(dfss, opts.Threshold)
		}
		rep.Runs = append(rep.Runs, run)
	}
	return rep, nil
}

// WriteDoDTable renders the Figure 4(a) series: DoD per query per
// algorithm.
func (r *Report) WriteDoDTable(w io.Writer) {
	fmt.Fprintln(w, "Figure 4(a) — Quality of DFSs (total DoD per query)")
	r.writeSeries(w, func(run QueryRun, alg core.Algorithm) string {
		return fmt.Sprintf("%d", run.DoD[alg])
	})
}

// WriteTimeTable renders the Figure 4(b) series: processing time per
// query per algorithm.
func (r *Report) WriteTimeTable(w io.Writer) {
	fmt.Fprintln(w, "Figure 4(b) — Processing time per query")
	r.writeSeries(w, func(run QueryRun, alg core.Algorithm) string {
		return fmt.Sprintf("%.4fs", run.Elapsed[alg].Seconds())
	})
}

func (r *Report) writeSeries(w io.Writer, cell func(QueryRun, core.Algorithm) string) {
	cols := []string{"query", "keywords", "results"}
	for _, alg := range r.Algorithms {
		cols = append(cols, string(alg))
	}
	rows := [][]string{cols}
	for _, run := range r.Runs {
		row := []string{run.ID, run.Query, fmt.Sprintf("%d", run.NumResults)}
		for _, alg := range r.Algorithms {
			row = append(row, cell(run, alg))
		}
		rows = append(rows, row)
	}
	writeAligned(w, rows)
}

func writeAligned(w io.Writer, rows [][]string) {
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
}

// SweepPoint is one measurement in a parameter sweep.
type SweepPoint struct {
	Param float64
	DoD   map[core.Algorithm]int
}

// ThresholdSweep measures DoD as the differentiation threshold x
// varies, on a fixed query's results (ablation of the paper's x=10%).
func ThresholdSweep(stats []*feature.Stats, algs []core.Algorithm, sizeBound int, thresholds []float64) []SweepPoint {
	out := make([]SweepPoint, 0, len(thresholds))
	for _, x := range thresholds {
		opts := core.Options{SizeBound: sizeBound, Threshold: x}
		p := SweepPoint{Param: x, DoD: make(map[core.Algorithm]int)}
		for _, alg := range algs {
			p.DoD[alg] = core.TotalDoD(core.Generate(alg, stats, opts), x)
		}
		out = append(out, p)
	}
	return out
}

// SizeBoundSweep measures DoD as L varies (ablation of the size
// bound's effect; DoD is non-decreasing in L for each algorithm's
// optimum but local search may wobble).
func SizeBoundSweep(stats []*feature.Stats, algs []core.Algorithm, threshold float64, bounds []int) []SweepPoint {
	out := make([]SweepPoint, 0, len(bounds))
	for _, l := range bounds {
		opts := core.Options{SizeBound: l, Threshold: threshold}
		p := SweepPoint{Param: float64(l), DoD: make(map[core.Algorithm]int)}
		for _, alg := range algs {
			p.DoD[alg] = core.TotalDoD(core.Generate(alg, stats, opts), threshold)
		}
		out = append(out, p)
	}
	return out
}

// WriteSweep renders a sweep as an aligned table.
func WriteSweep(w io.Writer, title, paramName string, points []SweepPoint) {
	fmt.Fprintln(w, title)
	if len(points) == 0 {
		return
	}
	var algs []core.Algorithm
	for a := range points[0].DoD {
		algs = append(algs, a)
	}
	sort.Slice(algs, func(i, j int) bool { return algs[i] < algs[j] })
	rows := [][]string{{paramName}}
	for _, a := range algs {
		rows[0] = append(rows[0], string(a))
	}
	for _, p := range points {
		row := []string{fmt.Sprintf("%g", p.Param)}
		for _, a := range algs {
			row = append(row, fmt.Sprintf("%d", p.DoD[a]))
		}
		rows = append(rows, row)
	}
	writeAligned(w, rows)
}
