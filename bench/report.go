package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// metricValue is one measured metric. Spread is the segment spread of
// a median-of-segments value (0 where the value is not one); Samples
// the number of observations behind it.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Spread  float64 `json:"spread,omitempty"`
	Samples int     `json:"samples,omitempty"`
}

// checkResult is one in-run output check.
type checkResult struct {
	Name    string `json:"name"`
	Checked int    `json:"checked"`
	Failed  int    `json:"failed"`
	Detail  string `json:"detail,omitempty"`
}

// runResult is the outcome of one workload run, traced or not.
type runResult struct {
	Workload  string                 `json:"workload"`
	Trace     bool                   `json:"trace"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Movies    int                    `json:"movies,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Checks    []checkResult          `json:"checks,omitempty"`
	Pool      map[string]int         `json:"pool,omitempty"`
	Notes     []string               `json:"notes,omitempty"`
}

func newRunResult(cfg runConfig) *runResult {
	return &runResult{
		Workload: cfg.workload, Trace: cfg.trace, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(),
		Correct: true, Metrics: make(map[string]metricValue),
	}
}

// defs is the metric table of this kind of run.
func (r *runResult) defs() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// set records a metric, taking its unit from the metric tables.
func (r *runResult) set(name string, v, segSpread float64, samples int) {
	d, ok := findMetric(r.defs(), name)
	if !ok {
		panic("bench: metric " + name + " is not in the metric table")
	}
	r.Metrics[name] = metricValue{Value: v, Unit: d.Unit, Spread: segSpread, Samples: samples}
}

// check records an output check and fails the run on any mismatch.
func (r *runResult) check(name string, checked, failed int, detail string) {
	r.Checks = append(r.Checks, checkResult{Name: name, Checked: checked, Failed: failed, Detail: detail})
	if failed > 0 {
		r.Correct = false
	}
}

// note records a free-form remark for the result file.
func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// complete fills metrics the workload never touches with 0 (a layer it
// never calls) on traced runs, and verifies that every metric of the
// run's table is present, finite, and — end to end — non-zero.
func (r *runResult) complete() error {
	for _, d := range r.defs() {
		m, ok := r.Metrics[d.Name]
		if !ok && r.Trace {
			m = metricValue{Unit: d.Unit}
			r.Metrics[d.Name] = m
			ok = true
		}
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", d.Name)
		}
		if !r.Trace && m.Value == 0 {
			return fmt.Errorf("end-to-end metric %s is zero", d.Name)
		}
	}
	if r.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	return nil
}

// print writes the run's metrics by name with unit and spread, then
// its checks.
func (r *runResult) print(w io.Writer) {
	kind := "end-to-end"
	if r.Trace {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %.0fs) attempted=%d failed=%d correct=%v\n",
		r.Workload, kind, r.Seed, r.Seconds, r.Attempted, r.Failed, r.Correct)
	for _, d := range r.defs() {
		m, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-38s %14.4f %-6s", d.Name, m.Value, m.Unit)
		if m.Spread > 0 {
			line += fmt.Sprintf(" spread %5.1f%%", 100*m.Spread)
		}
		if m.Samples > 0 {
			line += fmt.Sprintf(" n=%d", m.Samples)
		}
		if d.Moves != "" {
			line += "  -> " + d.Moves
		}
		fmt.Fprintln(w, line)
	}
	for _, c := range r.Checks {
		fmt.Fprintf(w, "  check %-36s %d checked, %d failed %s\n", c.Name, c.Checked, c.Failed, c.Detail)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note  %s\n", n)
	}
}

// contractLine renders the one-line JSON object the benchmark driver
// reads: exactly correct, attempted, failed and metrics, each metric
// exactly value and unit.
func (r *runResult) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]mv, len(r.Metrics))}
	for name, m := range r.Metrics {
		out.Metrics[name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return string(b)
}

// hostInfo is recorded in every result file so trajectories are
// comparable across PRs.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func readHost() hostInfo {
	kernel, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		kernel = []byte("unknown")
	}
	return hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Kernel: strings.TrimSpace(string(kernel)),
		OS: runtime.GOOS, Arch: runtime.GOARCH,
	}
}

// readCommit returns the checkout's commit, or "unknown" outside git
// (the benchmark driver's checkout is not a repository).
func readCommit(dir string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// workloadReport pairs a workload's untraced and traced runs.
type workloadReport struct {
	Why      string     `json:"why"`
	EndToEnd *runResult `json:"end_to_end"`
	PerLayer *runResult `json:"per_layer,omitempty"`
}

// resultFile is the document `bench` writes and `bench -diff` reads.
type resultFile struct {
	Host      hostInfo                   `json:"host"`
	Commit    string                     `json:"commit"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Movies    int                        `json:"corpus_movies"`
	Command   []string                   `json:"command"`
	Bounds    map[string]float64         `json:"bounds"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSONFile(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
