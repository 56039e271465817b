package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// diffStatus is a row's verdict.
type diffStatus string

const (
	statusOK         diffStatus = "ok"
	statusWorse      diffStatus = "worse"
	statusUnresolved diffStatus = "unresolved"
	// statusMissing marks a pair one of the files has no usable value
	// for; it fails the diff like a worse row, so that a run which lost
	// a workload or a metric cannot pass by omission.
	statusMissing diffStatus = "missing"
)

// diffRow compares one (workload, end-to-end metric) pair.
type diffRow struct {
	Workload, Metric string
	A, B             metricValue
	// Change is B's change against A as a share of A, signed so that
	// positive is worse (slower, bigger, or — for a higher-is-better
	// metric — lower).
	Change float64
	Bound  float64
	Status diffStatus
}

// judge compares b against a under the metric's bound. A pair whose
// segment spread exceeds the bound on either side cannot be told apart
// from noise: it is unresolved, never "unchanged".
func judge(def metricDef, a, b metricValue) (change float64, status diffStatus) {
	change = (b.Value - a.Value) / a.Value
	if def.Better == "higher" {
		change = -change
	}
	switch {
	case a.Spread > def.Bound || b.Spread > def.Bound:
		return change, statusUnresolved
	case change > def.Bound:
		return change, statusWorse
	}
	return change, statusOK
}

// diffFiles compares two result files: one row per (workload,
// end-to-end metric) pair of the benchmark's tables, whether or not
// both files have it. It also reports every workload whose failed share
// grew.
func diffFiles(a, b *resultFile) (rows []diffRow, moreFailures []string) {
	endToEndOf := func(f *resultFile, workload string) *runResult {
		if r := f.Workloads[workload]; r != nil && r.EndToEnd != nil {
			return r.EndToEnd
		}
		return &runResult{}
	}
	for _, w := range workloads {
		ea, eb := endToEndOf(a, w.Name), endToEndOf(b, w.Name)
		for _, def := range endToEnd {
			if bound, ok := a.Bounds[def.Name]; ok {
				def.Bound = bound // the bounds the baseline was recorded under
			}
			ma, okA := ea.Metrics[def.Name]
			mb, okB := eb.Metrics[def.Name]
			row := diffRow{Workload: w.Name, Metric: def.Name, A: ma, B: mb, Bound: def.Bound, Status: statusMissing}
			// A zero baseline has no share to worsen by; a run never
			// reports one (runResult.complete refuses it).
			if okA && okB && ma.Value != 0 {
				row.Change, row.Status = judge(def, ma, mb)
			}
			rows = append(rows, row)
		}
		shareA := float64(ea.Failed) / float64(max(ea.Attempted, 1))
		shareB := float64(eb.Failed) / float64(max(eb.Attempted, 1))
		if shareB > shareA {
			moreFailures = append(moreFailures, fmt.Sprintf("%s: failed share %.4f%% -> %.4f%% (%d/%d -> %d/%d)",
				w.Name, 100*shareA, 100*shareB, ea.Failed, ea.Attempted, eb.Failed, eb.Attempted))
		}
	}
	return rows, moreFailures
}

// runDiff prints the comparison of two result files and returns the
// process exit code: non-zero when any row is worse or missing, when a
// workload's failed share grew, or when the files were recorded with
// different run lengths or corpus sizes and so cannot be compared.
func runDiff(w io.Writer, pathA, pathB string) int {
	var a, b resultFile
	for _, f := range []struct {
		path string
		into *resultFile
	}{{pathA, &a}, {pathB, &b}} {
		if err := readJSONFile(f.path, f.into); err != nil {
			fmt.Fprintln(w, "bench -diff:", err)
			return 2
		}
	}
	fmt.Fprintf(w, "A: %s  commit %s  seed %d  %gs\nB: %s  commit %s  seed %d  %gs\n",
		pathA, a.Commit, a.Seed, a.Seconds, pathB, b.Commit, b.Seed, b.Seconds)
	if a.Seconds != b.Seconds || a.Movies != b.Movies {
		fmt.Fprintf(w, "bench -diff: not comparable: A ran %gs on %d movies, B %gs on %d movies\n", a.Seconds, a.Movies, b.Seconds, b.Movies)
		return 2
	}
	rows, moreFailures := diffFiles(&a, &b)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tunit\tworse by\tbound\tspread A\tspread B\tstatus\t")
	counts := map[diffStatus]int{}
	for _, r := range rows {
		counts[r.Status]++
		fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%s\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\t\n",
			r.Workload, r.Metric, r.A.Value, r.B.Value, r.A.Unit, 100*r.Change, 100*r.Bound, 100*r.A.Spread, 100*r.B.Spread, r.Status)
	}
	tw.Flush()
	fmt.Fprintf(w, "%d ok, %d worse, %d unresolved, %d missing\n", counts[statusOK], counts[statusWorse], counts[statusUnresolved], counts[statusMissing])
	for _, f := range moreFailures {
		fmt.Fprintln(w, "more failures:", f)
	}
	if counts[statusWorse] > 0 || counts[statusMissing] > 0 || len(moreFailures) > 0 {
		return 1
	}
	return 0
}
