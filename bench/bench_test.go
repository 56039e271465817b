package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dataset"
)

// smokeConfig shrinks a run to a 300-movie corpus and a 200 ms phase.
func smokeConfig(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{
		workload: workload, seed: 1, trace: trace,
		seconds: 200 * time.Millisecond, warmup: 50 * time.Millisecond,
		movies: 300, replay: 60, setups: 1, probe: 20,
		repoRoot: "..", buildDir: t.TempDir(),
	}
}

func smallPool() []poolQuery {
	return buildPool(readCorpus(dataset.Movies(dataset.MoviesConfig{Seed: 1, Movies: 300})))
}

// TestGeneratorDeterminism: the same seed yields a byte-identical op
// list, another seed a different one, and clients of one run differ.
func TestGeneratorDeterminism(t *testing.T) {
	pool := smallPool()
	if len(pool) < 100 {
		t.Fatalf("pool has only %d queries", len(pool))
	}
	if again := smallPool(); len(again) != len(pool) || again[0] != pool[0] || again[len(again)-1] != pool[len(pool)-1] {
		t.Fatal("the pool is not a pure function of the corpus")
	}
	a := formatReadOps(pool, readOps(7, 0, len(pool), 500))
	if b := formatReadOps(pool, readOps(7, 0, len(pool), 500)); a != b {
		t.Error("same seed, different op lists")
	}
	if b := formatReadOps(pool, readOps(8, 0, len(pool), 500)); a == b {
		t.Error("different seeds, identical op lists")
	}
	if b := formatReadOps(pool, readOps(7, 1, len(pool), 500)); a == b {
		t.Error("two clients of one run got identical op lists")
	}
	seen := make(map[string]bool)
	for _, q := range pool {
		key := queryKey(q.Text)
		if seen[key] {
			t.Errorf("pool query %q duplicates a cache key", q.Text)
		}
		seen[key] = true
	}
	sels := buildSelections(pool)
	s1, s2 := newSelectionSource(7, 0, len(sels)), newSelectionSource(7, 0, len(sels))
	for i := 0; i < 200; i++ {
		if s1.next() != s2.next() {
			t.Fatal("same seed, different selection sequences")
		}
	}
}

// TestSmoke runs every workload, untraced and traced, on the small
// corpus and asserts that each named metric is emitted, finite and
// carries its unit, and that no output check fails.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.Name + "/end_to_end"
			if trace {
				name = w.Name + "/per_layer"
			}
			t.Run(name, func(t *testing.T) {
				if w.Name == "http_api" && testing.Short() {
					t.Skip("http_api compiles and starts cmd/xsactd; skipped with -short")
				}
				res, err := runWorkload(smokeConfig(t, w.Name, trace))
				if err != nil {
					t.Fatal(err) // includes a missing, zero or non-finite metric
				}
				if !res.Correct || res.Failed != 0 {
					t.Errorf("correct=%v failed=%d checks=%+v notes=%v", res.Correct, res.Failed, res.Checks, res.Notes)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, table has %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s: present=%v value=%v unit=%q, want unit %q", d.Name, ok, m.Value, m.Unit, d.Unit)
					}
				}
				var line struct {
					Correct   *bool `json:"correct"`
					Attempted int64 `json:"attempted"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(res.contractLine()), &line); err != nil {
					t.Fatalf("contract line: %v", err)
				}
				if line.Correct == nil || line.Attempted < 1 || len(line.Metrics) != len(defs) {
					t.Errorf("contract line incomplete: %s", res.contractLine())
				}
			})
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables in step: same run length, workloads, metrics, units,
// directions, bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds.Seconds() {
		t.Errorf("run_seconds %v, defaultSeconds %v", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) || len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d/%d workloads/end-to-end/per-layer, tables have %d/%d/%d",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v vs %+v", i, doc.Workloads[i], w)
		}
		if _, ok := workloadFns[w.Name]; !ok {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	for i, d := range endToEnd {
		if g := doc.EndToEnd[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end-to-end %d: %+v vs %+v", i, g, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for i, d := range perLayer {
		if g := doc.PerLayer[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer %d: %+v vs %+v", i, g, d)
		}
		if d.Moves == "" {
			t.Errorf("%s names no end-to-end metric it should move", d.Name)
		}
	}
}

// TestQuartilesMatchPython pins the spread formula to the driver's:
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 1, 9}, 1, 9},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
	} {
		if q1, q3 := quartiles(c.vs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.vs, q1, q3, c.q1, c.q3)
		}
	}
	if got := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.95); got != 10 {
		t.Errorf("p95 of 1..10 = %v, want 10 (nearest rank)", got)
	}
}

// TestUnionOfLegIntervals: overlapping leg calls count once.
func TestUnionOfLegIntervals(t *testing.T) {
	calls := []legCall{{Start: 10, End: 20}, {Start: 15, End: 30}, {Start: 40, End: 45}, {Start: 41, End: 44}}
	if got := unionNS(calls); got != 25 {
		t.Errorf("union = %d, want 25", got)
	}
}

// TestSelfTimeIsSpanMinusChildren checks the split's arithmetic.
func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := newTracer(time.Now())
	root := tr.add(0, -1, layerOp, "op", 0, 100)
	e := tr.add(0, root, "engine", "engine.miss_page", 0, 80)
	x := tr.add(0, e, "xseek", "xseek.execute", 0, 50)
	tr.add(0, x, "slca", "slca.eager", 0, 30)
	tr.add(0, root, layerAlt, "engine.hit_page", 0, 1000)
	self := tr.selfByLayer()
	if self["engine"] != 30 || self["xseek"] != 20 || self["slca"] != 30 || len(self) != 3 {
		t.Errorf("self times %v", self)
	}
}

// TestDiffVerdicts: ok within the bound, worse beyond it in the
// metric's bad direction, unresolved when a side's spread exceeds it,
// missing when either file lacks the pair or the baseline value is zero;
// a larger failed share is reported on its own.
func TestDiffVerdicts(t *testing.T) {
	mk := func(p50, thr, spreadP50 float64, failed int64) *resultFile {
		return &resultFile{
			Bounds: map[string]float64{"latency_p50_ms": 0.20, "throughput_ops_s": 0.15},
			Workloads: map[string]*workloadReport{"read_mono": {EndToEnd: &runResult{
				Attempted: 1000, Failed: failed,
				Metrics: map[string]metricValue{
					"latency_p50_ms":   {Value: p50, Unit: "ms", Spread: spreadP50},
					"throughput_ops_s": {Value: thr, Unit: "1/s"},
				},
			}}},
		}
	}
	status := func(a, b *resultFile) (map[string]diffStatus, int) {
		rows, more := diffFiles(a, b)
		out := make(map[string]diffStatus)
		for _, r := range rows {
			if r.Workload == "read_mono" {
				out[r.Metric] = r.Status
			} else if r.Status != statusMissing {
				t.Errorf("%s/%s is in neither file, yet %s", r.Workload, r.Metric, r.Status)
			}
		}
		if len(rows) != len(workloads)*len(endToEnd) {
			t.Errorf("%d rows, want one per (workload, metric) pair", len(rows))
		}
		return out, len(more)
	}
	base := mk(1.0, 1000, 0.05, 0)
	if got, more := status(base, mk(1.1, 900, 0.05, 0)); got["latency_p50_ms"] != statusOK || got["throughput_ops_s"] != statusOK || more != 0 {
		t.Errorf("within bounds: %v, %d", got, more)
	}
	if got, _ := status(base, mk(1.3, 800, 0.05, 0)); got["latency_p50_ms"] != statusWorse || got["throughput_ops_s"] != statusWorse {
		t.Errorf("beyond bounds: %v", got)
	}
	if got, _ := status(base, mk(0.5, 2000, 0.05, 0)); got["latency_p50_ms"] != statusOK || got["throughput_ops_s"] != statusOK {
		t.Errorf("improvements must be ok: %v", got)
	}
	if got, _ := status(base, mk(1.3, 1000, 0.30, 0)); got["latency_p50_ms"] != statusUnresolved {
		t.Errorf("noisy side: %v", got)
	}
	if got, _ := status(base, mk(1.0, 1000, 0.05, 0)); got["dod_mean"] != statusMissing {
		t.Errorf("a metric in neither file: %v", got)
	}
	if got, _ := status(mk(0, 1000, 0.05, 0), base); got["latency_p50_ms"] != statusMissing {
		t.Errorf("a zero baseline: %v", got)
	}
	if _, more := status(base, mk(1.0, 1000, 0.05, 3)); more != 1 {
		t.Errorf("a larger failed share must be reported, got %d", more)
	}
}

// TestDiffRefusesOtherRunLengths: result files recorded with different
// run lengths or corpus sizes are not compared at all.
func TestDiffRefusesOtherRunLengths(t *testing.T) {
	write := func(name string, seconds float64, movies int) string {
		path := filepath.Join(t.TempDir(), name)
		if err := writeJSONFile(path, &resultFile{Seconds: seconds, Movies: movies}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", 12, 20000)
	for _, b := range []string{write("b.json", 20, 20000), write("c.json", 12, 300)} {
		if code := runDiff(io.Discard, a, b); code != 2 {
			t.Errorf("runDiff(%s) = %d, want 2", filepath.Base(b), code)
		}
	}
	// The same settings are compared — and every pair is missing.
	if code := runDiff(io.Discard, a, write("d.json", 12, 20000)); code != 1 {
		t.Errorf("runDiff of two empty runs = %d, want 1", code)
	}
}
