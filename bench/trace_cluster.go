package main

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/feature"
	"repro/internal/shard"
	"repro/internal/snippet"
)

// traceClusterK4 attributes a distributed read's wall time. Each leg's
// http.Handler is wrapped by a recorder, so for every replayed op the
// benchmark knows exactly when some leg was working on it. The op's
// wall time then splits, by construction, into the union of the leg
// intervals and the rest — the coordinator's own time: request
// encode, HTTP transport, response decode, merge and spine fix-up,
// plus any wait between fan-out rounds. The same ops then run through
// the in-process sharded engine (shard.Build, K = 4): what the fan-out
// and merge cost with no wire at all.
func traceClusterK4(cfg runConfig, res *runResult) error {
	st, err := setupCluster(cfg)()
	if err != nil {
		return err
	}
	defer st.close()
	res.set("dist.dial_ms", st.dialMS, 0, 1)
	facts := readCorpus(st.root)
	pool := buildPool(facts)
	res.Pool = poolComposition(pool)

	t := time.Now()
	sharded := shard.Build(st.root, clusterLegs)
	res.set("shard.build_ms", ms(time.Since(t)), 0, 1)
	inproc := engine.FromSharded(sharded, cachesOff)

	client := newReadClient(st.eng, pool, cfg.seed, 0)
	log := runClosedLoop([]clientFn{client.next}, cfg.warmup, cfg.counterSegment(), selfAlloc)
	setTail(res, log)
	noteErrors(res, client.lastErr)
	quiesce()

	off := engine.FromDist(st.co, cachesOff)
	tr := newTracer(st.rec.origin) // one clock for op spans and leg calls
	st.rec.on.Store(true)
	defer st.rec.on.Store(false)
	var allCalls []legCall
	var calls, busy, union, self, reqBytes, respBytes float64
	var clusterUS, inprocUS []float64
	pageOps := 0
	for i, op := range readOps(cfg.seed, 0, len(pool), cfg.replay) {
		st.rec.take()
		start := time.Since(st.rec.origin)
		_, err := doRead(off, pool, op, false)
		wall := time.Since(st.rec.origin) - start
		if err != nil {
			return fmt.Errorf("replay op %d: %w", i, err)
		}
		legCalls := st.rec.take()
		allCalls = append(allCalls, legCalls...)

		root := tr.add(i, -1, layerOp, kindNames[op.Kind], int64(start), int64(wall))
		u := unionNS(legCalls)
		// The coordinator span is the op's wall time; its one child is
		// the union of the leg intervals, so its self time is the rest.
		co := tr.add(i, root, "dist", "dist.coordinator", int64(start), int64(wall))
		tr.add(i, co, "dist_legs", "dist.legs_union", int64(start), u)
		for _, c := range legCalls {
			tr.add(i, root, layerAlt, fmt.Sprintf("dist.leg%d", c.Leg), c.Start, c.End-c.Start)
		}

		t0 := time.Now()
		if _, err := doRead(inproc, pool, op, false); err != nil {
			return fmt.Errorf("replay op %d in process: %w", i, err)
		}
		inprocDur := time.Since(t0)
		tr.add(i, root, layerAlt, "shard.inproc_k4_page", int64(t0.Sub(st.rec.origin)), int64(inprocDur))

		if op.Kind == opSnippet {
			// A snippet op also extracts features and builds the digest
			// on the coordinator; repeated here so they leave its self time.
			if rs, err := inproc.Search(pool[op.Query].Text); err == nil && len(rs) > 0 {
				r := pickResult(rs, op.Pick)
				var fs *feature.Stats
				tr.timed(i, co, "feature", "feature.extract", func() { fs = feature.Extract(r.Node, inproc.Schema(), r.Label) })
				tr.timed(i, co, "snippet", "snippet.generate", func() { snippet.Generate(fs, snippet.Options{Query: pool[op.Query].Text}) })
			}
			continue
		}
		pageOps++
		clusterUS = append(clusterUS, us(wall))
		inprocUS = append(inprocUS, us(inprocDur))
		calls += float64(len(legCalls))
		for _, c := range legCalls {
			busy += float64(c.End - c.Start)
			reqBytes += float64(c.ReqBytes)
			respBytes += float64(c.RespBytes)
		}
		union += float64(u)
		self += float64(int64(wall) - u)
	}
	res.Attempted += int64(cfg.replay)

	n := float64(pageOps)
	res.set("dist.leg_calls_per_op", calls/n, 0, pageOps)
	res.set("dist.leg_busy_us_per_op", busy/n/1e3, 0, pageOps)
	res.set("dist.leg_union_us_per_op", union/n/1e3, 0, pageOps)
	res.set("dist.coordinator_self_us_per_op", self/n/1e3, 0, pageOps)
	res.set("dist.req_bytes_per_op", reqBytes/n, 0, pageOps)
	res.set("dist.resp_bytes_per_op", respBytes/n, 0, pageOps)
	res.set("shard.inproc_k4_page_us", median(inprocUS), 0, pageOps)
	res.set("dist.tax_ratio_p50", median(clusterUS)/median(inprocUS), 0, pageOps)
	res.note("page ops: cluster p50 %.1f us = coordinator self + leg union by construction (means %.1f + %.1f us)",
		median(clusterUS), self/n/1e3, union/n/1e3)
	retries, hedges, _, legErrs, _, _ := st.co.DistCounters()
	res.set("dist.retries", float64(retries), 0, 0)
	res.set("dist.hedges", float64(hedges), 0, 0)
	res.set("dist.leg_errs", float64(legErrs), 0, 0)
	if ds := tr.durationsUS("feature.extract"); len(ds) > 0 {
		res.set("feature.extract_us_per_result", median(ds), 0, len(ds))
		res.set("snippet.generate_us", tr.medianUS("snippet.generate"), 0, len(ds))
	}
	setSplit(res, tr.selfByLayer())
	return writeSpans(cfg, res, tr, allCalls)
}
