package main

import (
	"fmt"
	"time"
)

// traceHTTPAPI attributes an API request's latency: the same ops run
// over one keep-alive connection and then as direct engine calls — the
// calls the handlers make — on in-process engines over the same
// built-in corpora. The difference is the front end's own time: HTTP,
// routing, parameter handling and JSON encoding.
func traceHTTPAPI(cfg runConfig, res *runResult) error {
	bin, err := buildXsactd(cfg)
	if err != nil {
		return err
	}
	p, err := startXsactd(bin)
	if err != nil {
		return err
	}
	defer p.stop()
	res.set("xsactd.start_ms", p.startMS, 0, 1)
	targets, err := buildTargets(p)
	if err != nil {
		return err
	}

	// The workload's own phase, shorter: the tail, and the rate two
	// closed-loop clients saturate at.
	log, clients := runAPIClients(p, targets, cfg.seed, cfg.warmup, cfg.counterSegment())
	setTail(res, log)
	var respBytes int64
	for _, c := range clients {
		noteErrors(res, c.lastErr)
		respBytes += c.respBytes
	}
	rps, _ := log.throughput(streamMain)
	res.set("xsactd.saturation_rps", rps, 0, len(log.ops))
	res.set("xsactd.resp_bytes_per_op", float64(respBytes)/float64(len(log.ops)), 0, len(log.ops))

	// What a lone user sees: the same mix on a fixed open-loop schedule
	// far below saturation, each request timed from when it was due.
	total := cfg.warmup + cfg.seconds/2
	ops := httpOps(targets, cfg.seed, int(httpRate*total.Seconds()*1.2)+64)
	open := runOpenLoop(p, ops, cfg.seed, cfg.warmup, cfg.counterSegment())
	noteErrors(res, open.lastErr)
	v, sp, n := open.latencyPercentile(streamMain, 0.50)
	res.set("xsactd.open_loop_p50_ms", v, sp, n)
	v, sp, n = open.latencyPercentile(streamMain, 0.95)
	res.set("xsactd.open_loop_p95_ms", v, sp, n)
	res.set("xsactd.gen_late_p99_ms", percentile(open.lateMS, 0.99), 0, len(open.lateMS))
	attempted, failed := open.counts()
	res.Attempted += attempted
	res.Failed += failed
	if share := httpRate / rps; share > 0.30 {
		res.note("WARNING: the %.0f req/s schedule is %.0f%% of the saturation rate %.0f req/s; above 30%% the open loop measures queueing", httpRate, 100*share, rps)
	}

	engs := builtinEngines()
	for c := range targets {
		for _, t := range targets[c] {
			if _, err := inProcess(engs, t); err != nil { // warm the twins' caches like the server's
				return fmt.Errorf("in-process %s: %w", t.path, err)
			}
		}
	}
	tr := newTracer(time.Now())
	s := newSender()
	defer s.client.CloseIdleConnections()
	var httpUS, inprocUS [numHTTPClasses][]float64
	for i, t := range httpOps(targets, cfg.seed+1, cfg.replay) {
		root := tr.open(i, -1, layerOp, httpClassNames[t.class])
		var err error
		req := tr.timed(i, root, "xsactd", "xsactd.request", func() { _, err = s.do(p.base + t.path) })
		if err != nil {
			return fmt.Errorf("replay op %d: %w", i, err)
		}
		twin := tr.timed(i, req, "engine", "engine.api_equivalent", func() { _, err = inProcess(engs, t) })
		if err != nil {
			return fmt.Errorf("replay op %d in process: %w", i, err)
		}
		tr.close(root)
		httpUS[t.class] = append(httpUS[t.class], us(tr.dur(req)))
		inprocUS[t.class] = append(inprocUS[t.class], us(tr.dur(twin)))
	}
	res.Attempted += int64(cfg.replay)
	search := append(append([]float64(nil), httpUS[httpSearch]...), httpUS[httpRanked]...)
	searchTwin := append(append([]float64(nil), inprocUS[httpSearch]...), inprocUS[httpRanked]...)
	res.set("xsactd.front_self_us_search", median(search)-median(searchTwin), 0, len(search))
	res.set("xsactd.front_self_us_compare", median(httpUS[httpCompare])-median(inprocUS[httpCompare]), 0, len(httpUS[httpCompare]))
	for c := range httpUS {
		res.note("%s: http p50 %.1f us, in-process p50 %.1f us over %d ops", httpClassNames[c], median(httpUS[c]), median(inprocUS[c]), len(httpUS[c]))
	}
	setSplit(res, tr.selfByLayer())
	return writeSpans(cfg, res, tr, nil)
}
