package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/engine"
)

// The traced run times every layer from outside: the benchmark calls a
// layer's exported functions itself and records a span around each
// call. No layer is instrumented, so tracing cannot slow the untraced
// run, and a later change that adds real spans inside the program can
// be checked against these.
//
// A span's children are the calls it is made of. Where the program
// nests them inside one exported call (engine → xseek → index/slca),
// the benchmark cannot reach inside, so it times the outer call and
// then repeats each inner stage as its own call, attached to the outer
// span as a child. A layer's self time is its spans' time minus their
// children's: the part no lower layer accounts for.

// Pseudo-layers excluded from the cost split.
const (
	layerOp  = "op"  // the whole operation: the root of every span tree
	layerAlt = "alt" // an alternative route or a baseline, timed for a metric only
)

// span is one timed call.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for an op's root span
	Op     int32  `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// tracer keeps spans in memory until the run ends. The traced replay
// is sequential, so it needs no lock.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

// timed runs f inside a new span and returns the span's ID.
func (t *tracer) timed(op int, parent int32, layer, name string, f func()) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: int32(op), Layer: layer, Name: name})
	start := time.Now()
	f()
	d := time.Since(start)
	t.spans[id].Start = int64(start.Sub(t.origin))
	t.spans[id].Dur = int64(d)
	return id
}

// open starts a span around calls that record spans of their own;
// close ends it.
func (t *tracer) open(op int, parent int32, layer, name string) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: int32(op), Layer: layer, Name: name, Start: int64(time.Since(t.origin))})
	return id
}

func (t *tracer) close(id int32) {
	t.spans[id].Dur = int64(time.Since(t.origin)) - t.spans[id].Start
}

// add records a span measured elsewhere (a leg call, an op's wall time).
func (t *tracer) add(op int, parent int32, layer, name string, start, dur int64) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: int32(op), Layer: layer, Name: name, Start: start, Dur: dur})
	return id
}

func (t *tracer) dur(id int32) time.Duration { return time.Duration(t.spans[id].Dur) }

// durationsUS returns every span of the given name, in microseconds.
func (t *tracer) durationsUS(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.Dur)/1e3)
		}
	}
	return out
}

// medianUS is the median duration of the spans named name, 0 if none.
func (t *tracer) medianUS(name string) float64 {
	ds := t.durationsUS(name)
	if len(ds) == 0 {
		return 0
	}
	return median(ds)
}

// selfByLayer sums, per layer, span time minus direct children's time.
// Sums are clamped at zero per layer, not per span: a child repeated
// as its own call can run a little slower than it did inside its
// parent, and clamping every span would turn that noise into a bias.
func (t *tracer) selfByLayer() map[string]float64 {
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.Dur
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		if s.Layer == layerOp || s.Layer == layerAlt {
			continue
		}
		out[s.Layer] += float64(s.Dur - children[s.ID])
	}
	for l, v := range out {
		if v < 0 {
			out[l] = 0
		}
	}
	return out
}

// splitLayers are the layers of the cost split, in report order.
var splitLayers = []string{"index", "slca", "xseek", "engine", "feature", "core", "table", "snippet", "update", "dist", "dist_legs", "xsactd"}

// setSplit records each layer's share of the replay's self time.
func setSplit(res *runResult, self map[string]float64) {
	total := 0.0
	for _, v := range self {
		total += v
	}
	if total == 0 {
		return
	}
	for l, v := range self {
		res.set("split."+l+"_pct", 100*v/total, 0, 0)
	}
	var parts []string
	for _, l := range splitLayers {
		if v := self[l]; v > 0 {
			parts = append(parts, fmt.Sprintf("%s %.1f%%", l, 100*v/total))
		}
	}
	res.note("self-time split of the traced replay: %s", strings.Join(parts, ", "))
}

// spanDump is the span file's document.
type spanDump struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Spans    []span    `json:"spans"`
	LegCalls []legCall `json:"leg_calls,omitempty"`
}

// writeSpans writes the spans out now that the run has ended.
func writeSpans(cfg runConfig, res *runResult, t *tracer, legs []legCall) error {
	if err := writeJSONFile(cfg.spanFile(), spanDump{cfg.workload, cfg.seed, t.spans, legs}); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	res.note("%d spans written to %s", len(t.spans), cfg.spanFile())
	return nil
}

// cachesOff disables every engine cache, so each replayed op runs its
// full route.
var cachesOff = engine.Config{QueryCacheSize: -1, DFSCacheSize: -1, StatsCacheSize: -1, StreamCursorCacheSize: -1}

// ratio is a/(a+b), 0 when both are zero.
func ratio(a, b int64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// setCacheRatios records the engine's cache hit ratios and ranked
// routing over a phase from its Metrics deltas.
func setCacheRatios(res *runResult, before, after engine.Metrics) {
	res.set("engine.query_cache_hit_ratio", ratio(after.QueryHits-before.QueryHits, after.QueryMisses-before.QueryMisses), 0, 0)
	res.set("engine.stats_cache_hit_ratio", ratio(after.StatsHits-before.StatsHits, after.StatsMisses-before.StatsMisses), 0, 0)
	res.set("engine.dfs_cache_hit_ratio", ratio(after.DFSHits-before.DFSHits, after.DFSMisses-before.DFSMisses), 0, 0)
	res.set("engine.ranked_streamed_ratio", ratio(after.RankedStreamed-before.RankedStreamed, after.RankedEager-before.RankedEager), 0, 0)
}

// setTail records the phase's p99 with its sample count.
func setTail(res *runResult, log *phaseLog) {
	lats := log.allLatencies(streamMain)
	res.set("tail.latency_p99_ms", percentile(lats, 0.99), 0, len(lats))
	res.Attempted, res.Failed = log.counts()
}

// counterSegment is the segment length of the traced run's own
// untraced timed phase: half the run's length in all, enough for
// counter deltas and a p99.
func (c runConfig) counterSegment() time.Duration { return c.seconds / 2 / numSegments }

// pairedDiffsUS returns, per op in op order, the duration of the span
// named a minus that of the span named b, for ops that have both (an op
// has at most one span of either name).
func (t *tracer) pairedDiffsUS(a, b string) []float64 {
	durA := make(map[int32]int64)
	for _, s := range t.spans {
		if s.Name == a {
			durA[s.Op] = s.Dur
		}
	}
	var out []float64
	for _, s := range t.spans {
		if da, ok := durA[s.Op]; ok && s.Name == b {
			out = append(out, float64(da-s.Dur)/1e3)
		}
	}
	return out
}
