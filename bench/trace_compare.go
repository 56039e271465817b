package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/feature"
	"repro/internal/table"
	"repro/internal/xseek"
)

// traceCompareDFS replays the paper's pipeline one stage per span. The
// stages are real sequential calls here — ranked top-k, one feature
// extraction per result, DFS generation, table build, DoD, HTML — so an
// op's span tree is exactly what doCompare does with every cache cold
// behind the query LRU.
func traceCompareDFS(cfg runConfig, res *runResult) error {
	st := buildTimed(cfg, res, engine.Config{})
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

	before := st.eng.Metrics()
	clients := []*compareClient{
		{eng: st.eng, sels: sels, src: newSelectionSource(cfg.seed, 0, len(sels))},
		{eng: st.eng, sels: sels, src: newSelectionSource(cfg.seed, 1, len(sels))},
	}
	log := runClosedLoop([]clientFn{clients[0].next, clients[1].next}, cfg.warmup, cfg.counterSegment(), selfAlloc)
	setCacheRatios(res, before, st.eng.Metrics())
	setTail(res, log)
	noteErrors(res, clients[0].lastErr, clients[1].lastErr)
	quiesce()

	tr := newTracer(time.Now())
	x := st.eng.Xseek()
	src := newSelectionSource(cfg.seed, 0, len(sels))
	var html bytes.Buffer
	var dodSum, baseSum int64
	var perResult []float64 // extraction time per result, microseconds
	for i := 0; i < cfg.replay; i++ {
		s := sels[src.next()]
		root := tr.open(i, -1, layerOp, "compare")
		var rs []*xseek.Result
		var err error
		read := tr.timed(i, root, "engine", "engine.hit_page", func() { rs, err = topResults(st.eng, s) })
		if err != nil {
			return fmt.Errorf("replay op %d: %w", i, err)
		}
		// The hit re-scores the cached result list; that ranking pass,
		// repeated as its own call:
		cached, _ := st.eng.Search(s.Query)
		tr.timed(i, read, "xseek", "xseek.rank_page", func() { x.RankPage(cached, s.Query, xseek.SearchOptions{Limit: s.K}) })

		stats := make([]*feature.Stats, len(rs))
		ext := tr.timed(i, root, "feature", "feature.extract", func() {
			for j, r := range rs {
				stats[j] = feature.Extract(r.Node, x.Schema(), r.Label)
			}
		})
		perResult = append(perResult, us(tr.dur(ext))/float64(len(rs)))
		var dfss []*core.DFS
		tr.timed(i, root, "core", genSpanName(s), func() { dfss = core.GenerateParallel(s.Alg, stats, compareOptions) })
		var tbl *table.Table
		tr.timed(i, root, "table", "table.build", func() { tbl = table.Build(dfss) })
		var dod int
		tr.timed(i, root, "core", "core.total_dod", func() { dod = core.TotalDoD(dfss, compareOptions.Threshold) })
		html.Reset()
		tr.timed(i, root, "table", "table.render_html", func() { err = tbl.WriteHTML(&html) })
		if err != nil {
			return fmt.Errorf("replay op %d: %w", i, err)
		}
		tr.close(root)
		dodSum += int64(dod)
		baseSum += int64(core.TotalDoD(core.Generate(core.AlgTopK, stats, compareOptions), compareOptions.Threshold))
	}
	res.Attempted += int64(cfg.replay)

	for _, name := range []string{"engine.hit_page", "xseek.rank_page", "table.build", "table.render_html"} {
		if ds := tr.durationsUS(name); len(ds) > 0 {
			res.set(name+"_us", median(ds), 0, len(ds))
		}
	}
	for _, alg := range compareAlgs {
		for _, k := range []int{10, 20} {
			s := selection{K: k, Alg: alg}
			if ds := tr.durationsUS(genSpanName(s)); len(ds) > 0 {
				res.set(genSpanName(s)+"_us", median(ds), 0, len(ds))
			}
		}
	}
	if len(perResult) > 0 {
		res.set("feature.extract_us_per_result", median(perResult), 0, len(perResult))
	}
	if baseSum > 0 {
		res.set("core.dod_vs_topk_ratio", float64(dodSum)/float64(baseSum), 0, cfg.replay)
	}
	setSplit(res, tr.selfByLayer())
	return writeSpans(cfg, res, tr, nil)
}

// genSpanName names a DFS-generation span after its algorithm and k,
// e.g. core.single_swap_k10.
func genSpanName(s selection) string {
	return fmt.Sprintf("core.%s_k%d", strings.ReplaceAll(string(s.Alg), "-", "_"), s.K)
}
