package shard

import (
	"repro/internal/core"
	"repro/internal/dewey"
	"repro/internal/xseek"
)

// This file is the fan-out's lazy read paths. The ranked path: each
// leg runs the lazy SLCA → entity → bounded-heap consumer over its own
// index with block-max pruning (collecting its kept SLCAs on the fly
// for the spine fix-up), and the per-leg top lists merge through the
// existing K-way rank merge. No leg ever materializes its full result
// list — only its top Offset+Limit survive per leg — yet the page,
// scores, and total are bit-identical to the same window of Search +
// RankResults.
//
// One shared monotone threshold circulates: each leg publishes its own
// k-th-best score as its heap fills, so a slow leg can prune with the
// global bar, not just its own. Leg scoring (and therefore leg bounds)
// is leg-local: a leg's hits lie inside its own segments, and
// spine-owned SLCAs are filtered out and fixed up eagerly afterwards.
// Cross-leg pruning uses strict comparison only: a pruned entity
// scores strictly below the final global k-th score, so it can affect
// neither membership nor tie order of the page.
//
// Over a transport the threshold circulates as per-leg score floors: a
// remote leg starts from a snapshot of the shared bar and reports its
// final bar back. Any snapshot is a lower bound on the global k-th
// best score, so staleness only costs pruning opportunity, never
// correctness.

// SearchRankedPageWAND returns the options' window of the relevance
// ranking with score-bounded pruning in every leg. Every leg runs in
// exact mode whatever opts.Accuracy asks for: a leg's block-max bounds
// cover only its own postings, so they cannot bound a spine-rooted
// entity whose score sums across legs, and a leg that stopped early
// would starve the spine fix-up. The page and total are therefore
// bit-identical to the same window of Search + RankResults, which the
// approximate contract allows. An unbounded window (Limit <= 0) has
// nothing to prune and falls back to the eager path.
func (f *Fanout) SearchRankedPageWAND(query string, opts xseek.SearchOptions) ([]*xseek.RankedResult, int, xseek.WANDStats, error) {
	var zero xseek.WANDStats
	lo := opts.Offset
	if lo < 0 {
		lo = 0
	}
	hi := 0
	if opts.Limit > 0 {
		if n := lo + opts.Limit; n > lo { // overflow-safe, mirroring Window
			hi = n
		}
	}
	if hi == 0 {
		results, err := f.Search(query)
		if err != nil {
			return nil, 0, zero, err
		}
		ranked, err := f.RankResultsErr(results, query)
		if err != nil {
			return nil, 0, zero, err
		}
		wlo, whi := opts.Window(len(ranked))
		return ranked[wlo:whi], len(results), zero, nil
	}

	terms, err := xseek.Keywords(f.df, query)
	if err != nil {
		return nil, 0, zero, err
	}
	f.plannerStreamed.Add(1)

	lq := LegQuery{Query: query, Terms: terms, Limit: hi}
	shared := &xseek.SharedThreshold{}
	outs := make([]LegPage, len(f.legs))
	errs := make([]error, len(f.legs))
	core.ForEachParallel(len(f.legs), 0, func(g int) {
		outs[g], errs[g] = f.legs[g].RankedLeg(lq, shared)
	})

	var st xseek.WANDStats
	total := 0
	degraded := false
	var segSLCAs []dewey.ID // groups are contiguous, so the concat is sorted
	var boundary [][]*xseek.Result
	streams := make([][]*xseek.RankedResult, 0, len(outs)+1)
	for g, o := range outs {
		if errs[g] != nil {
			// The failure policy may trade completeness for availability:
			// the failed leg's contribution is dropped, the page degrades
			// (spine fix-up skipped, total unknowable), and the caller
			// sees the loss via the flagged total — partial, never
			// silently wrong.
			if f.onLegErr != nil {
				if err := f.onLegErr(g, errs[g]); err == nil {
					degraded = true
					continue
				}
			}
			return nil, 0, st, errs[g]
		}
		st.Add(o.Stats)
		total += o.Total
		segSLCAs = append(segSLCAs, o.SLCAs...)
		if len(o.Boundary) > 0 {
			boundary = append(boundary, o.Boundary)
		}
		if len(o.Top) > 0 {
			streams = append(streams, o.Top)
		}
	}

	// Spine fix-up with whole-corpus knowledge, exactly as in Search:
	// the spine's own SLCAs plus the legs' boundary reports (entities
	// whose subtrees the partition split across groups) coalesce into
	// one spine bucket, scored with cross-leg term counts and cut to
	// the window. A degraded run skips it: the fix-up needs every leg's
	// kept SLCAs, boundary reports, and witness counts to be sound, and
	// such a run already reports its total as unknown.
	if !degraded {
		spineIDs, err := f.spineSLCAs(terms, segSLCAs)
		if err != nil {
			return nil, 0, st, err
		}
		var spineRes []*xseek.Result
		if len(spineIDs) > 0 {
			if spineRes, err = f.spine.MapToEntities(spineIDs); err != nil {
				return nil, 0, st, err
			}
		}
		if bucket := coalesceSpineResults(spineRes, boundary); len(bucket) > 0 {
			total += len(bucket)
			spine, err := f.RankResultsErr(bucket, query)
			if err != nil {
				return nil, 0, st, err
			}
			if len(spine) > hi {
				spine = spine[:hi]
			}
			streams = append(streams, spine)
		}
	}

	merged := mergeRankedStreams(streams, hi)
	if lo > len(merged) {
		lo = len(merged)
	}
	if degraded {
		// A dropped leg's count is missing, so the sum is meaningless.
		total = xseek.StreamTotalUnknown
	}
	return merged[lo:], total, st, nil
}

// SearchStream returns a doc-order result cursor. The fan-out's
// doc-order answer needs every leg's results merged before the first
// emission can be trusted, so this materializes via Search and wraps
// the list — a true per-leg lazy merge is future work; the serving
// layer's cursor cache still benefits from the uniform interface.
func (f *Fanout) SearchStream(query string) (xseek.Cursor, error) {
	results, err := f.Search(query)
	if err != nil {
		return nil, err
	}
	return xseek.SliceCursor(results), nil
}

// EstimateResults bounds the query's result count for stream planning:
// the smallest aggregate document frequency, 0 when the query cannot
// match anywhere.
func (f *Fanout) EstimateResults(query string) int { return xseek.EstimateResults(f.df, query) }
