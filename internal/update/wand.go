package update

import (
	"repro/internal/index"
	"repro/internal/xseek"
)

// The live engine's ranked path: the lazy composite pipeline of
// stream.go feeding the score-bounded consumer. The bound for one term
// composes per-part bounds in two steps, each matching where a result
// subtree's postings can actually live:
//
//   - Base parts sum. A monolithic base is one part; a sharded base
//     splits one logical list into spine + per-shard parts, and a
//     spine wrapper node's subtree can span several of them, so only
//     the always-admissible sum composition is safe there (tf is
//     additive over disjoint parts).
//   - Base ⊕ delta takes the max. Added entities receive fresh
//     top-level ordinals the base never used, so any non-root node's
//     postings live entirely on one side — the delta for added
//     subtrees, the base for original ones — and the max of the two
//     sides bounds both.
//
// Tombstones only remove postings; ignoring them keeps every bound
// admissible and never raises one.

// termBounds builds one composite bound cursor per scoring term over
// this snapshot, or nil when any part lacks bound metadata (legacy
// compact payload) — the signal to run the consumer unpruned.
func (s *state) termBounds(terms []string) []xseek.TermBound {
	out := make([]xseek.TermBound, 0, len(terms))
	for _, t := range terms {
		df := s.df.get(t)
		if df == 0 {
			continue
		}
		idf := xseek.IDF(s.totalNodes, df)
		if idf == 0 {
			continue
		}
		lbs, ok := s.src.bounds(t)
		if !ok {
			return nil
		}
		base := make([]index.BoundCursor, 0, len(lbs))
		for _, lb := range lbs {
			if lb.Blocks() > 0 {
				base = append(base, lb.Cursor())
			}
		}
		sides := make([]index.BoundCursor, 0, 2)
		if len(base) > 0 {
			sides = append(sides, index.SumBoundCursor(base...))
		}
		if s.delta != nil {
			if lb := s.delta.TermBounds(t); lb != nil && lb.Blocks() > 0 {
				sides = append(sides, lb.Cursor())
			}
		}
		if len(sides) == 0 {
			// df > 0 yet no part holds postings cannot happen; guard
			// anyway with a zero bound.
			sides = append(sides, index.BoundsOf(nil).Cursor())
		}
		out = append(out, xseek.TermBound{IDF: idf, Cur: index.MaxBoundCursor(sides...)})
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// SearchRankedPageWAND runs the score-bounded ranked pipeline over
// the live corpus: lazy composite SLCAs, streamed entity mapping, and
// the bounded-heap consumer with block-max pruning. Exact mode is
// bit-identical to the same window of a drained SearchStream +
// RankResults over the same snapshot;
// approximate mode may stop draining and report StreamTotalUnknown.
func (e *Engine) SearchRankedPageWAND(query string, opts xseek.SearchOptions) ([]*xseek.RankedResult, int, xseek.WANDStats, error) {
	s := e.view()
	terms, err := compileStream(s, query)
	if err != nil {
		return nil, 0, xseek.WANDStats{}, err
	}
	e.plannerStreamed.Add(1)
	it := s.slcaIter(terms, e)
	es := xseek.NewEntityStream(it, s.root, s.schema)
	return xseek.ConsumeRankedWAND(es, opts, s.streamScorer(terms), s.termBounds(terms), nil)
}
