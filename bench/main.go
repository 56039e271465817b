// Command bench is the repository's one serving benchmark: five fixed
// workloads, nine end-to-end metrics, and a per-layer cost split timed
// from outside the layers (see README.md in this directory).
//
//	go run . [-seed 1] [-seconds 12] [-out FILE]     all workloads, untraced + traced, each in a fresh child process
//	go run . -workload NAME [-trace 1] [-seed N]     one run in this process; the last stdout line is the driver's JSON
//	go run . -diff A.json B.json                     compare two result files
//
// BENCHMARK.json at the repository root runs it through run.sh, which
// builds this package into .bench_build/ first.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload in this process (default: all, each in a child process)")
		seed     = flag.Int64("seed", 1, "seed of the op sequences")
		seconds  = flag.Float64("seconds", defaultSeconds.Seconds(), "length of the timed phase (four segments)")
		trace    = flag.Int("trace", 0, "1 = the traced per-layer run, 0 = the untraced end-to-end run")
		out      = flag.String("out", "", "result file to write (default: .bench_build/bench_result.json)")
		jsonOut  = flag.String("json-out", "", "with -workload: also write the full run result as JSON here")
		diff     = flag.Bool("diff", false, "compare two result files: -diff A.json B.json")
		spin     = flag.Bool("spin", false, "internal: be a run's keep-awake spinners (see awake.go)")
	)
	flag.Parse()

	if *spin {
		spinMain()
	}

	if *diff {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-diff takes two result files"))
		}
		os.Exit(runDiff(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}

	root, err := findRepoRoot()
	if err != nil {
		fatal(err)
	}
	cfg := runConfig{
		workload: *workload, seed: *seed, trace: *trace != 0,
		seconds: time.Duration(*seconds * float64(time.Second)), warmup: defaultWarmup,
		movies: defaultMovies, replay: defaultReplay, setups: defaultSetups, probe: defaultProbe,
		awake: true, repoRoot: root, buildDir: filepath.Join(root, ".bench_build"),
	}
	if cfg.seconds < numSegments*50*time.Millisecond {
		fatal(fmt.Errorf("-seconds %v is too short for %d segments", *seconds, numSegments))
	}
	if err := os.MkdirAll(cfg.buildDir, 0o755); err != nil {
		fatal(err)
	}

	if *workload == "" {
		if *out == "" {
			*out = filepath.Join(cfg.buildDir, "bench_result.json")
		}
		if err := runAll(cfg, *out); err != nil {
			fatal(err)
		}
		return
	}

	res, err := runWorkload(cfg)
	if err != nil {
		fatal(err)
	}
	res.print(os.Stdout)
	if *jsonOut != "" {
		if err := writeJSONFile(*jsonOut, res); err != nil {
			fatal(err)
		}
	}
	fmt.Println(res.contractLine())
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// findRepoRoot locates the checkout root — the directory holding
// cmd/xsactd — from the working directory: `go run` from bench/ starts
// one level below it, run.sh starts in it.
func findRepoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "xsactd", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("cannot find the repository root (cmd/xsactd) from %s", wd)
}

// runAll runs every workload untraced and traced, each in a fresh
// child process so peak RSS and allocation counts are the workload's
// own, prints every metric, and writes the result file.
func runAll(cfg runConfig, outPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rf := &resultFile{
		Host: readHost(), Commit: readCommit(cfg.repoRoot), Seed: cfg.seed,
		Seconds: cfg.seconds.Seconds(), Movies: cfg.movies, Command: os.Args,
		Bounds:    make(map[string]float64),
		Workloads: make(map[string]*workloadReport),
	}
	for _, d := range endToEnd {
		rf.Bounds[d.Name] = d.Bound
	}
	allCorrect := true
	for _, w := range workloads {
		rep := &workloadReport{Why: w.Why}
		for _, traced := range []bool{false, true} {
			tmp := filepath.Join(cfg.buildDir, fmt.Sprintf("run_%s_%v.json", w.Name, traced))
			args := []string{
				"-workload", w.Name, "-seed", fmt.Sprint(cfg.seed),
				"-seconds", fmt.Sprint(cfg.seconds.Seconds()), "-json-out", tmp,
			}
			if traced {
				args = append(args, "-trace", "1")
			}
			_ = os.Remove(tmp) // a stale file must not stand in for a crashed child
			cmd := exec.Command(self, args...)
			cmd.Dir = cfg.repoRoot
			cmd.Stdout = os.Stdout
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			var res runResult
			if err := readJSONFile(tmp, &res); err != nil {
				return fmt.Errorf("%s (trace=%v): %v (child: %v)", w.Name, traced, err, runErr)
			}
			if traced {
				rep.PerLayer = &res
			} else {
				rep.EndToEnd = &res
			}
			allCorrect = allCorrect && res.Correct
		}
		rf.Workloads[w.Name] = rep
	}
	if err := writeJSONFile(outPath, rf); err != nil {
		return err
	}
	fmt.Printf("result file: %s\n", outPath)
	if !allCorrect {
		return fmt.Errorf("an output check failed; see the checks above")
	}
	return nil
}
