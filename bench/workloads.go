package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime/debug"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// runConfig is one workload run's parameters.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration // the timed phase, split into numSegments
	warmup   time.Duration
	trace    bool
	movies   int    // corpus size of the in-process workloads
	replay   int    // ops in the traced stage-by-stage replay
	setups   int    // how many times set-up is measured (median reported)
	probe    int    // most add/remove pairs an in-process write probe runs
	awake    bool   // run the keep-awake spinners (awake.go); off in tests, whose binary is not this command
	repoRoot string // checkout root, for building cmd/xsactd
	buildDir string // where binaries, snapshots and span files go
}

const (
	defaultMovies = 20000
	defaultReplay = 2000
	defaultSetups = 3
	// defaultSeconds is run_seconds in BENCHMARK.json — the longest
	// phase that fits the driver's 114 runs into its time budget — so a
	// run by hand, the committed baseline and a driver run are of one
	// length and -diff compares any two of them.
	defaultSeconds = 12 * time.Second
	defaultWarmup  = 2 * time.Second

	// The write probe (workloads whose timed phase has no writer) runs
	// add/remove pairs until probeBudget is spent, at least probeMinPairs
	// and at most defaultProbe. The first pair is a warm-up and not
	// timed: the first write after a read-only phase builds the live
	// layer's tables (a 110 ms remove against 9 ms for every later one).
	// A write on the 20000-movie corpus allocates megabytes, so the
	// collector marks for 0.1-0.3 s of every second of back-to-back
	// writes and a remove under it takes 13 ms, not 9: thirty pairs fall
	// inside or outside one mark phase and their median flips between the
	// two, three hundred (3 s) span several cycles.
	probeMinPairs = 9
	defaultProbe  = 301
	probeBudget   = 8 * time.Second // about 18 pairs through the cluster_k4 coordinator, 0.4 s a pair
	// dodOpsProbe is how many selections the DoD replay covers on
	// workloads other than compare_dfs, which replays all of them.
	dodOpsProbe = 200
)

func (c runConfig) segment() time.Duration { return c.seconds / numSegments }

// corpus generates the in-process workloads' movie corpus. Its seed is
// fixed: the workload seed varies the op sequence, not the data.
func (c runConfig) corpus() *xmltree.Node {
	return dataset.Movies(dataset.MoviesConfig{Seed: 1, Movies: c.movies})
}

// workloadFns maps workload names to their untraced and traced runs.
var workloadFns = map[string]struct {
	run, trace func(runConfig, *runResult) error
}{
	"read_mono":   {runReadMono, traceReadMono},
	"compare_dfs": {runCompareDFS, traceCompareDFS},
	"cluster_k4":  {runClusterK4, traceClusterK4},
	"live_mixed":  {runLiveMixed, traceLiveMixed},
	"http_api":    {runHTTPAPI, traceHTTPAPI},
}

// runWorkload executes one workload run and validates its metric set.
func runWorkload(cfg runConfig) (*runResult, error) {
	fns, ok := workloadFns[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	res := newRunResult(cfg)
	if cfg.workload != "http_api" {
		res.Movies = cfg.movies
	}
	f := fns.run
	if cfg.trace {
		f = fns.trace
	}
	stopSpin, err := keepAwake(cfg)
	if err != nil {
		return nil, err
	}
	defer stopSpin()
	if err := f(cfg, res); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if err := res.complete(); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	return res, nil
}

// measureSetup runs setup n times and returns the median wall time in
// seconds, its spread, and the last stack built (earlier ones are torn
// down and their memory returned first, so the peak RSS the run later
// reports is that of one serving stack, not of n).
func measureSetup[S any](n int, setup func() (S, error), teardown func(S)) (S, float64, float64, error) {
	var last S
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(last)
			var zero S
			last = zero
			debug.FreeOSMemory()
		}
		t := time.Now()
		s, err := setup()
		if err != nil {
			return last, 0, 0, err
		}
		times = append(times, time.Since(t).Seconds())
		last = s
	}
	return last, median(times), spread(times), nil
}

// setEndToEnd fills the metrics every closed-loop phase yields.
func setEndToEnd(res *runResult, log *phaseLog, setupS, setupSpread float64, setups int, rssMB float64) {
	res.set("setup_s", setupS, setupSpread, setups)
	v, sp := log.throughput(streamMain)
	res.set("throughput_ops_s", v, sp, 0)
	v, sp, n := log.latencyPercentile(streamMain, 0.50)
	res.set("latency_p50_ms", v, sp, n)
	v, sp, n = log.latencyPercentile(streamMain, 0.95)
	res.set("latency_p95_ms", v, sp, n)
	v, sp = log.allocKBPerOp()
	res.set("alloc_kb_per_op", v, sp, 0)
	res.set("peak_rss_mb", rssMB, 0, 0)
	res.Attempted, res.Failed = log.counts()
}

// probeMore reports whether the write probe should time pair i.
func probeMore(i, maxPairs int, start time.Time) bool {
	return i < probeMinPairs || (i < maxPairs && time.Since(start) < probeBudget)
}

// writeProbe times add/remove pairs on eng and records the two write
// metrics. It runs after the timed phase and the read checks: a write
// purges every cache and bumps the epoch.
func writeProbe(cfg runConfig, res *runResult, eng *engine.Engine, facts *corpusFacts) error {
	w := newEntityWriter(eng, facts, cfg.seed, "benchprobe")
	var adds, removes []float64
	quiesce() // start from a collected heap, whatever the phases before left
	for i, start := 0, time.Now(); probeMore(i, cfg.probe, start); i++ {
		t := time.Now()
		marker, err := w.add()
		if err != nil {
			return fmt.Errorf("write probe add: %w", err)
		}
		addMS := ms(time.Since(t))
		t = time.Now()
		if err := w.remove(marker); err != nil {
			return fmt.Errorf("write probe remove: %w", err)
		}
		if i > 0 {
			adds, removes = append(adds, addMS), append(removes, ms(time.Since(t)))
		}
	}
	res.Attempted += int64(len(adds) + len(removes))
	setWriteProbe(res, adds, removes)
	return nil
}

// setWriteProbe records a write probe's two latencies. A probe has no
// segments, and consecutive stretches of it differ by design (an add
// slows as pending writes pile up, then a flush resets it), so the four
// values a spread needs are the medians of the four interleaved quarters
// of the samples: each quarter sees every stretch, and how far they
// disagree is how far the probe's median can be trusted. -diff then
// calls a scattered probe unresolved, not ok.
func setWriteProbe(res *runResult, adds, removes []float64) {
	for _, m := range []struct {
		name    string
		samples []float64
	}{{"add_p50_ms", adds}, {"remove_p50_ms", removes}} {
		var quarters [numSegments][]float64
		for i, v := range m.samples {
			quarters[i%numSegments] = append(quarters[i%numSegments], v)
		}
		var medians []float64
		for _, q := range quarters {
			if len(q) > 0 {
				medians = append(medians, median(q))
			}
		}
		res.set(m.name, betterMedian(medians, true), spread(medians), len(m.samples))
	}
}

// dodProbe replays the first n selections on eng and records dod_mean
// plus the DFS validity check.
func dodProbe(res *runResult, eng *engine.Engine, sels []selection, n int) error {
	if len(sels) == 0 {
		return fmt.Errorf("no comparable selections in the pool")
	}
	if n > len(sels) {
		n = len(sels)
	}
	meanDoD, bad, detail, err := dodReplay(eng, sels[:n])
	if err != nil {
		return fmt.Errorf("dod replay: %w", err)
	}
	res.Attempted += int64(n)
	res.set("dod_mean", meanDoD, 0, n)
	res.check("dfs_within_L_and_dod_at_least_topk", n, bad, detail)
	return nil
}

// noteErrors records the clients' last errors (nil for a client that
// had none) in the result file.
func noteErrors(res *runResult, lastErrs ...error) {
	for i, err := range lastErrs {
		if err != nil {
			res.note("client %d last error: %v", i, err)
		}
	}
}

// monoStack is an in-process monolithic serving stack.
type monoStack struct {
	root *xmltree.Node
	eng  *engine.Engine
}

// setupMono generates the corpus, builds the engine, and answers one
// query: corpus generation + build to first good reply.
func setupMono(cfg runConfig, ecfg engine.Config) func() (*monoStack, error) {
	return func() (*monoStack, error) {
		root := cfg.corpus()
		eng := engine.NewWithConfig(root, ecfg)
		if _, err := eng.SearchRankedPage(firstQuery(root), xseek.SearchOptions{Limit: pageLimit}); err != nil {
			return nil, fmt.Errorf("first query: %w", err)
		}
		return &monoStack{root, eng}, nil
	}
}

// firstQuery is a query every movie corpus answers: the first movie's
// first genre.
func firstQuery(root *xmltree.Node) string {
	if len(root.Children) > 0 {
		if g := root.Children[0].FirstChildElement("genre"); g != nil {
			return g.Value()
		}
	}
	return "movie"
}

func dropMono(*monoStack) {}

// --- read_mono ---

func runReadMono(cfg runConfig, res *runResult) error {
	st, setupS, setupSp, err := measureSetup(cfg.setups, setupMono(cfg, engine.Config{}), dropMono)
	if err != nil {
		return err
	}
	facts := readCorpus(st.root)
	pool := buildPool(facts)
	res.Pool = poolComposition(pool)

	clients := []*readClient{newReadClient(st.eng, pool, cfg.seed, 0), newReadClient(st.eng, pool, cfg.seed, 1)}
	log := runClosedLoop([]clientFn{clients[0].next, clients[1].next}, cfg.warmup, cfg.segment(), selfAlloc)
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	setEndToEnd(res, log, setupS, setupSp, cfg.setups, rss)
	noteErrors(res, clients[0].lastErr, clients[1].lastErr)

	checked, failed, detail := verifySamples(st.eng.Xseek(), pool, clients, func(k opKind) bool { return k == opRankedExact })
	res.check("ranked_exact_equals_eager_search_rankpage", checked, failed, detail)

	if err := dodProbe(res, st.eng, buildSelections(pool), dodOpsProbe); err != nil {
		return err
	}
	return writeProbe(cfg, res, st.eng, facts)
}

// --- compare_dfs ---

// compareClient is one closed-loop comparison client.
type compareClient struct {
	eng     *engine.Engine
	sels    []selection
	src     *selectionSource
	html    bytes.Buffer
	lastErr error
}

func (c *compareClient) next() (uint8, bool) {
	c.html.Reset()
	if _, err := doCompare(c.eng, c.sels[c.src.next()], &c.html); err != nil {
		c.lastErr = err
		return streamMain, false
	}
	return streamMain, true
}

// warmQueryCache runs a doc-order search for each selection query, so
// the ranked top-k of every compare op windows a cached result list
// (a streamed ranked page alone never fills the query LRU).
func warmQueryCache(eng *engine.Engine, sels []selection) error {
	for _, q := range selectionQueries(sels) {
		if _, err := eng.Search(q); err != nil {
			return fmt.Errorf("warm %q: %w", q, err)
		}
	}
	return nil
}

func runCompareDFS(cfg runConfig, res *runResult) error {
	st, setupS, setupSp, err := measureSetup(cfg.setups, setupMono(cfg, engine.Config{}), dropMono)
	if err != nil {
		return err
	}
	facts := readCorpus(st.root)
	pool := buildPool(facts)
	res.Pool = poolComposition(pool)
	sels := buildSelections(pool)
	if len(sels) == 0 {
		return fmt.Errorf("no comparable selections in the pool")
	}
	if err := warmQueryCache(st.eng, sels); err != nil {
		return err
	}

	clients := []*compareClient{
		{eng: st.eng, sels: sels, src: newSelectionSource(cfg.seed, 0, len(sels))},
		{eng: st.eng, sels: sels, src: newSelectionSource(cfg.seed, 1, len(sels))},
	}
	log := runClosedLoop([]clientFn{clients[0].next, clients[1].next}, cfg.warmup, cfg.segment(), selfAlloc)
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	setEndToEnd(res, log, setupS, setupSp, cfg.setups, rss)
	noteErrors(res, clients[0].lastErr, clients[1].lastErr)

	if err := dodProbe(res, st.eng, sels, len(sels)); err != nil {
		return err
	}
	return writeProbe(cfg, res, st.eng, facts)
}

// --- live_mixed ---

// liveConfig is xsactd's default live configuration.
var liveConfig = engine.Config{AutoCompactThreshold: 64}

// pairWriter is the closed-loop writer client: alternately adds a
// marked movie and removes it again.
type pairWriter struct {
	w       *entityWriter
	marker  string
	lastErr error
	// watch, when set, is polled after every write for the pending
	// delta's size; maxDelta keeps the largest seen.
	watch    *engine.Engine
	maxDelta int
}

func (p *pairWriter) observe() {
	if p.watch == nil {
		return
	}
	if live := p.watch.Live(); live != nil {
		if d, _ := live.Pending(); d > p.maxDelta {
			p.maxDelta = d
		}
	}
}

func (p *pairWriter) next() (uint8, bool) {
	if p.marker == "" {
		marker, err := p.w.add()
		if err != nil {
			p.lastErr = err
			return streamAdd, false
		}
		p.marker = marker
		p.observe()
		return streamAdd, true
	}
	err := p.w.remove(p.marker)
	p.marker = ""
	if err != nil {
		p.lastErr = err
		return streamRemove, false
	}
	return streamRemove, true
}

func runLiveMixed(cfg runConfig, res *runResult) error {
	st, setupS, setupSp, err := measureSetup(cfg.setups, setupMono(cfg, liveConfig), dropMono)
	if err != nil {
		return err
	}
	facts := readCorpus(st.root)
	pool := buildPool(facts)
	res.Pool = poolComposition(pool)

	reader := newReadClient(st.eng, pool, cfg.seed, 0)
	writer := &pairWriter{w: newEntityWriter(st.eng, facts, cfg.seed, "benchlive")}
	log := runClosedLoop([]clientFn{reader.next, writer.next}, cfg.warmup, cfg.segment(), selfAlloc)
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	setEndToEnd(res, log, setupS, setupSp, cfg.setups, rss)
	noteErrors(res, reader.lastErr, writer.lastErr)
	v, sp, n := log.latencyPercentile(streamAdd, 0.50)
	res.set("add_p50_ms", v, sp, n)
	v, sp, n = log.latencyPercentile(streamRemove, 0.50)
	res.set("remove_p50_ms", v, sp, n)

	// Settle the corpus: finish an open pair, then let any background
	// compaction end, so the checks below see a quiescent engine.
	if writer.marker != "" {
		if err := writer.w.remove(writer.marker); err != nil {
			return fmt.Errorf("closing the last pair: %w", err)
		}
	}
	if err := st.eng.Compact(); err != nil {
		return fmt.Errorf("final compaction: %w", err)
	}
	m := st.eng.Metrics()
	res.note("writes %d, compactions %d, marker resolves retried %d", m.Updates, m.Compactions, writer.w.retries)
	// Every pair was closed, so the corpus must be back to its seed
	// state: the engine answers like a cold engine over a fresh corpus.
	ref := xseek.NewParallel(cfg.corpus())
	checked, failed, detail := 0, 0, ""
	for _, op := range readOps(cfg.seed, 2, len(pool), 100) {
		fp, err := doRead(st.eng, pool, op, true)
		want, werr := oracleRead(ref, pool, op)
		checked++
		if err != nil || werr != nil || fp != want {
			failed++
			if detail == "" {
				detail = fmt.Sprintf("%s %q: got %.80q want %.80q (%v, %v)", kindNames[op.Kind], pool[op.Query].Text, fp, want, err, werr)
			}
		}
	}
	res.check("reads_after_writes_equal_cold_engine", checked, failed, detail)

	return dodProbe(res, st.eng, buildSelections(pool), dodOpsProbe)
}

// spanFile names the traced run's span dump.
func (c runConfig) spanFile() string {
	return filepath.Join(c.buildDir, "spans_"+c.workload+".json")
}

// quiesce collects what finished phases left behind and returns the
// freed pages, so the next measurement starts from one known heap
// state. A write allocates about half a megabyte of copy-on-write
// tables; whether those land on already-faulted pages or fresh ones
// halves or doubles its latency, and after a plain GC either can happen.
func quiesce() { debug.FreeOSMemory() }
