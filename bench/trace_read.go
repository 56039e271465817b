package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/dewey"
	"repro/internal/engine"
	"repro/internal/feature"
	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/slca"
	"repro/internal/snippet"
	"repro/internal/xseek"
)

// readReplay replays read ops stage by stage against one monolithic
// engine and accumulates the counts the stages expose.
type readReplay struct {
	tr   *tracer
	pool []poolQuery
	x    *xseek.Engine  // the stages are called on this engine...
	off  *engine.Engine // ...and the whole route on this cache-less serving engine over it
	hot  *engine.Engine // default caches, for the hit-page timing; nil skips it

	postings, queries    int64 // posting-list entries resolved, over queries that resolved lists
	results, slcaQueries int64 // SLCAs computed, over queries that ran an SLCA stage
	pruned, blocks, wand int64 // WAND counters, over bounded WAND pages
}

// rebase points the replay at a new base engine (after a compaction).
func (r *readReplay) rebase(x *xseek.Engine) {
	r.x = x
	r.off = engine.FromXseek(x, cachesOff)
}

// indexStages records, under parent, the two index stages every
// compiled query starts with, and returns the resolved posting lists
// (nil when a keyword matches nothing).
func (r *readReplay) indexStages(op int, parent int32, q string) []index.PostingList {
	var terms []string
	var lists []index.PostingList
	var stats index.PlanStats
	var err error
	r.tr.timed(op, parent, "index", "index.tokenize", func() { terms = index.TokenizeQuery(q) })
	r.tr.timed(op, parent, "index", "index.query_lists", func() { lists, stats, err = r.x.Index().QueryLists(terms) })
	r.queries++
	for _, n := range stats.Lengths {
		r.postings += int64(n)
	}
	if err != nil {
		return nil
	}
	return lists
}

// compile records xseek.Compile and, as its children, the index stages
// it is made of. It returns nil when a keyword matches nothing.
func (r *readReplay) compile(op int, parent int32, q string) *xseek.Query {
	var cq *xseek.Query
	id := r.tr.timed(op, parent, "xseek", "xseek.compile", func() { cq, _ = r.x.Compile(q) })
	r.indexStages(op, id, q)
	return cq
}

// execute records Query.Execute and, as its child, the eager SLCA
// stage; what remains is entity lifting and labelling.
func (r *readReplay) execute(op int, parent int32, cq *xseek.Query) []*xseek.Result {
	var rs []*xseek.Result
	var ids []dewey.ID
	id := r.tr.timed(op, parent, "xseek", "xseek.execute", func() { rs, _ = cq.Execute() })
	r.tr.timed(op, id, "slca", "slca.eager", func() { ids = cq.SLCAs() })
	r.results += int64(len(ids))
	r.slcaQueries++
	return rs
}

// wandPage records the score-bounded ranked page and its stages.
func (r *readReplay) wandPage(op int, parent int32, q string, opts xseek.SearchOptions) {
	var st xseek.WANDStats
	id := r.tr.timed(op, parent, "xseek", "xseek.wand_page", func() { _, _, st, _ = r.x.SearchRankedPageWAND(q, opts) })
	lists := r.indexStages(op, id, q)
	if st.Bounded {
		r.wand++
		r.pruned += st.Pruned
		r.blocks += st.BlocksSkipped
	}
	// An exact page drains the SLCA stream to count the total; an
	// approximate one stops early, so its SLCA share cannot be
	// repeated from outside and stays inside wand_page.
	if lists != nil && opts.Accuracy == xseek.AccuracyExact {
		var ids []dewey.ID
		r.tr.timed(op, id, "slca", "slca.stream_collect", func() { ids = slca.Collect(slca.Stream(lists)) })
		r.results += int64(len(ids))
		r.slcaQueries++
	}
}

// read replays one op under parent: the full cache-less route through
// the serving engine, then each stage of that route as its own call.
func (r *readReplay) read(i int, parent int32, op readOp) error {
	q := r.pool[op.Query].Text
	var err error
	miss := r.tr.timed(i, parent, "engine", "engine.miss_page", func() { _, err = doRead(r.off, r.pool, op, false) })
	if err != nil {
		return err
	}
	switch op.Kind {
	case opDocPage:
		r.tr.timed(i, miss, "xseek", "xseek.clean", func() { q = strings.Join(r.x.CleanQuery(q), " ") })
		if cq := r.compile(i, miss, q); cq != nil {
			r.execute(i, miss, cq)
		}
	case opRankedExact:
		// The engine's own routing rule for a cache miss.
		if slca.PlanStreamed(index.PlanStats{Min: r.x.EstimateResults(q)}, pageLimit) {
			r.wandPage(i, miss, q, rankedOpts(op.Kind))
		} else if cq := r.compile(i, miss, q); cq != nil {
			rs := r.execute(i, miss, cq)
			r.tr.timed(i, miss, "xseek", "xseek.rank_page", func() { r.x.RankPage(rs, q, rankedOpts(op.Kind)) })
		}
	case opRankedApprox:
		r.wandPage(i, miss, q, rankedOpts(op.Kind))
	case opSnippet:
		if cq := r.compile(i, miss, q); cq != nil {
			if rs := r.execute(i, miss, cq); len(rs) > 0 {
				res := pickResult(rs, op.Pick)
				var st *feature.Stats
				r.tr.timed(i, miss, "feature", "feature.extract", func() { st = feature.Extract(res.Node, r.x.Schema(), res.Label) })
				r.tr.timed(i, miss, "snippet", "snippet.generate", func() { snippet.Generate(st, snippet.Options{Query: q}) })
			}
		}
	}
	if r.hot != nil {
		_, _ = r.hot.Search(q) // put the result list in the query LRU; a no-match outcome is cached too
		r.tr.timed(i, parent, layerAlt, "engine.hit_page", func() { _, err = doRead(r.hot, r.pool, op, false) })
	}
	return err
}

// setReadMetrics records the per-layer metrics a read replay yields.
func (r *readReplay) setReadMetrics(res *runResult) {
	tr := r.tr
	for _, name := range []string{
		"index.tokenize", "index.query_lists", "slca.stream_collect", "slca.eager",
		"xseek.compile", "xseek.execute", "xseek.rank_page", "xseek.wand_page",
		"engine.hit_page", "engine.miss_page", "snippet.generate",
	} {
		ds := tr.durationsUS(name)
		if len(ds) > 0 {
			res.set(name+"_us", median(ds), 0, len(ds))
		}
	}
	if ds := tr.durationsUS("feature.extract"); len(ds) > 0 {
		res.set("feature.extract_us_per_result", median(ds), 0, len(ds))
	}
	if ds := tr.pairedDiffsUS("xseek.execute", "slca.eager"); len(ds) > 0 {
		res.set("xseek.lift_self_us", median(ds), 0, len(ds))
	}
	if r.queries > 0 {
		res.set("index.postings_per_query", float64(r.postings)/float64(r.queries), 0, int(r.queries))
	}
	if r.slcaQueries > 0 {
		res.set("slca.results_per_query", float64(r.results)/float64(r.slcaQueries), 0, int(r.slcaQueries))
	}
	if r.wand > 0 {
		res.set("xseek.wand_pruned_per_query", float64(r.pruned)/float64(r.wand), 0, int(r.wand))
		res.set("xseek.wand_blocks_skipped_per_query", float64(r.blocks)/float64(r.wand), 0, int(r.wand))
	}
}

// buildTimed generates the corpus and builds the monolithic engine,
// recording the build's layer costs.
func buildTimed(cfg runConfig, res *runResult, ecfg engine.Config) *monoStack {
	root := cfg.corpus()
	t := time.Now()
	eng := engine.NewWithConfig(root, ecfg)
	res.set("engine.build_ms", ms(time.Since(t)), 0, 1)
	// The engine build runs the index build and schema inference in
	// parallel; the index alone, timed as its own call:
	t = time.Now()
	index.BuildParallel(root, 0)
	res.set("index.build_ms", ms(time.Since(t)), 0, 1)
	return &monoStack{root, eng}
}

// persistMetrics saves the engine in the v4 layout, loads it back, and
// times the first query on the loaded engine.
func persistMetrics(cfg runConfig, res *runResult, st *monoStack) error {
	path := filepath.Join(cfg.buildDir, "snapshot_"+cfg.workload+".v4")
	defer os.Remove(path)
	t := time.Now()
	if err := persist.SaveFileFormat(path, st.eng, persist.Meta{CorpusName: "movies", Seed: 1}, persist.CompactFormatVersion); err != nil {
		return err
	}
	res.set("persist.save_v4_ms", ms(time.Since(t)), 0, 1)
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	res.set("persist.snapshot_bytes_per_node", float64(info.Size())/float64(st.eng.TotalNodes()), 0, 1)
	t = time.Now()
	loaded, _, err := persist.LoadFile(path, st.root, engine.Config{})
	if err != nil {
		return err
	}
	res.set("persist.load_v4_ms", ms(time.Since(t)), 0, 1)
	t = time.Now()
	if _, err := loaded.SearchRankedPage(firstQuery(st.root), xseek.SearchOptions{Limit: pageLimit}); err != nil {
		return err
	}
	res.set("persist.first_query_after_load_ms", ms(time.Since(t)), 0, 1)
	return nil
}

func traceReadMono(cfg runConfig, res *runResult) error {
	st := buildTimed(cfg, res, engine.Config{})
	facts := readCorpus(st.root)
	pool := buildPool(facts)
	res.Pool = poolComposition(pool)

	before := st.eng.Metrics()
	clients := []*readClient{newReadClient(st.eng, pool, cfg.seed, 0), newReadClient(st.eng, pool, cfg.seed, 1)}
	log := runClosedLoop([]clientFn{clients[0].next, clients[1].next}, cfg.warmup, cfg.counterSegment(), selfAlloc)
	setCacheRatios(res, before, st.eng.Metrics())
	setTail(res, log)
	noteErrors(res, clients[0].lastErr, clients[1].lastErr)
	quiesce()

	rp := &readReplay{tr: newTracer(time.Now()), pool: pool, hot: st.eng}
	rp.rebase(st.eng.Xseek())
	for i, op := range readOps(cfg.seed, 0, len(pool), cfg.replay) {
		root := rp.tr.open(i, -1, layerOp, kindNames[op.Kind])
		err := rp.read(i, root, op)
		rp.tr.close(root)
		if err != nil {
			return fmt.Errorf("replay op %d: %w", i, err)
		}
	}
	res.Attempted += int64(cfg.replay)
	rp.setReadMetrics(res)
	setSplit(res, rp.tr.selfByLayer())
	if err := persistMetrics(cfg, res, st); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return writeSpans(cfg, res, rp.tr, nil)
}

// traceLiveMixed measures the update layer: the read slow-down a
// concurrent writer causes, and — in a sequential replay on a live
// engine with a pending delta — what a live read costs over the same
// read on the compacted base, and what adds, removes and compactions
// cost.
func traceLiveMixed(cfg runConfig, res *runResult) error {
	st := buildTimed(cfg, res, liveConfig)
	facts := readCorpus(st.root)
	pool := buildPool(facts)
	res.Pool = poolComposition(pool)

	// Reader alone, then reader beside the writer, on the same engine.
	alone := newReadClient(st.eng, pool, cfg.seed, 0)
	aloneLog := runClosedLoop([]clientFn{alone.next}, cfg.warmup, cfg.counterSegment()/2, selfAlloc)
	before := st.eng.Metrics()
	reader := newReadClient(st.eng, pool, cfg.seed, 0)
	writer := &pairWriter{w: newEntityWriter(st.eng, facts, cfg.seed, "benchlive"), watch: st.eng}
	log := runClosedLoop([]clientFn{reader.next, writer.next}, cfg.warmup, cfg.counterSegment(), selfAlloc)
	after := st.eng.Metrics()
	setCacheRatios(res, before, after)
	setTail(res, log)
	noteErrors(res, alone.lastErr, reader.lastErr, writer.lastErr)
	p50Alone, _, _ := aloneLog.latencyPercentile(streamMain, 0.50)
	p50Mixed, _, n := log.latencyPercentile(streamMain, 0.50)
	res.set("update.read_slowdown_ratio", p50Mixed/p50Alone, 0, n)
	lats := log.allLatencies(streamMain)
	res.set("update.read_p99_ms", percentile(lats, 0.99), 0, len(lats))
	res.set("update.compactions", float64(after.Compactions-before.Compactions), 0, 0)
	res.set("update.pending_delta_max", float64(writer.maxDelta), 0, 0)
	if writer.marker != "" {
		if err := writer.w.remove(writer.marker); err != nil {
			return fmt.Errorf("closing the last pair: %w", err)
		}
	}
	if err := st.eng.Compact(); err != nil {
		return err
	}
	quiesce()

	// The sequential replay runs on a cache-less live engine over the
	// compacted base. Writes keep a few marked movies pending so reads
	// cross base + delta − tombstones; compaction is explicit.
	live := engine.FromXseek(st.eng.Xseek(), cachesOff)
	w := newEntityWriter(live, facts, cfg.seed, "benchreplay")
	rp := &readReplay{tr: newTracer(time.Now()), pool: pool}
	rp.rebase(live.Xseek())
	var pending []string
	const writeEvery, lag, compactions = 50, 4, 3
	for i, op := range readOps(cfg.seed, 0, len(pool), cfg.replay) {
		var err error
		if i%writeEvery == writeEvery/2 {
			rp.tr.timed(i, -1, "update", "update.add", func() {
				var marker string
				if marker, err = w.add(); err == nil {
					pending = append(pending, marker)
				}
			})
			if err == nil && len(pending) > lag {
				rp.tr.timed(i, -1, "update", "update.remove", func() { err = w.remove(pending[0]) })
				pending = pending[1:]
			}
		}
		if err == nil && (i+1)%(cfg.replay/compactions) == 0 {
			rp.tr.timed(i, -1, "update", "update.compact", func() { err = live.Compact() })
			rp.rebase(live.Xseek())
		}
		if err != nil {
			return fmt.Errorf("replay write at op %d: %w", i, err)
		}
		root := rp.tr.timed(i, -1, "update", "update.read", func() { _, err = doRead(live, pool, op, false) })
		if err == nil {
			err = rp.read(i, root, op)
		}
		if err != nil {
			return fmt.Errorf("replay op %d: %w", i, err)
		}
	}
	res.Attempted += int64(cfg.replay)
	rp.setReadMetrics(res)
	if ds := rp.tr.durationsUS("update.compact"); len(ds) > 0 {
		res.set("update.compact_p50_ms", median(ds)/1e3, 0, len(ds))
	}
	res.note("replay writes: add p50 %.1f us, remove p50 %.1f us", rp.tr.medianUS("update.add"), rp.tr.medianUS("update.remove"))
	setSplit(res, rp.tr.selfByLayer())
	return writeSpans(cfg, res, rp.tr, nil)
}
