package update

import (
	"sort"

	"repro/internal/index"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// This file is the composite read path: every query runs against
// base ⊕ delta − tombstones at the posting-list level, so the SLCA,
// entity-mapping, ranking, and spell-correction stages all behave
// exactly as a cold engine over the live logical corpus would.

// list materializes the live composite posting list for one term:
// base lists (one per shard plus spine for a sharded base) merged with
// the delta list, minus every posting under a tombstone. Filtering
// must happen before SLCA computation — removing a subtree's witnesses
// can surface new, shallower SLCAs, not just hide old ones.
func (s *state) list(term string) index.PostingList {
	parts := s.src.postings(term)
	if s.delta != nil {
		parts = append(parts, s.delta.Lookup(term))
	}
	if len(s.tombstones) > 0 {
		for i := range parts {
			parts[i] = index.Without(parts[i], s.tombstones)
		}
	}
	return index.MergeLists(parts...)
}

// RankResults scores and orders a result set with the exact cold-build
// TF-IDF: term frequencies counted on the composite lists, inverse
// document frequencies derived from the live (maintained) corpus
// statistics, stable sort keeping document order on ties.
func (e *Engine) RankResults(results []*xseek.Result, query string) []*xseek.RankedResult {
	out := e.scoreResults(e.view(), results, query)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

// scoreResults computes TF-IDF scores in input order — the live twin of
// the xseek and shard scoring stages, sharing their weight formulas so
// scores are bit-identical.
func (e *Engine) scoreResults(s *state, results []*xseek.Result, query string) []*xseek.RankedResult {
	terms := index.TokenizeQuery(query)
	lists := make(map[string]index.PostingList, len(terms))
	out := make([]*xseek.RankedResult, len(results))
	slab := make([]xseek.RankedResult, len(results)) // one allocation for every entry
	for i, r := range results {
		score := 0.0
		for _, t := range terms {
			df := s.df.get(t)
			if df == 0 {
				continue
			}
			l, ok := lists[t]
			if !ok {
				l = s.list(t)
				lists[t] = l
			}
			tf := index.CountUnder(l, r.Node.ID)
			if tf == 0 {
				continue
			}
			score += xseek.TermWeight(tf, xseek.IDF(s.totalNodes, df))
		}
		slab[i] = xseek.RankedResult{Result: r, Score: score}
		out[i] = &slab[i]
	}
	return out
}

// CleanQuery spell-corrects each keyword against the live vocabulary
// with the single-index candidate ranking (distance, then frequency,
// then term).
func (e *Engine) CleanQuery(query string) []string {
	s := e.view()
	terms := index.TokenizeQuery(query)
	out := make([]string, len(terms))
	for i, t := range terms {
		if s.df.get(t) > 0 {
			out[i] = t
			continue
		}
		if sugg := index.SuggestIn(s.eachTerm, t, 2); len(sugg) > 0 {
			out[i] = sugg[0]
		} else {
			out[i] = t
		}
	}
	return out
}

func (s *state) eachTerm(f func(term string, df int)) {
	s.df.each(f)
}

// Root returns the live document tree. Mutations replace it (the
// returned tree itself is immutable), so do not retain it across
// writes.
func (e *Engine) Root() *xmltree.Node { return e.view().root }

// Schema returns the live schema summary, maintained to equal a cold
// inference of the current logical corpus.
func (e *Engine) Schema() *xseek.Schema { return e.view().schema }

// TotalNodes returns the live corpus node count.
func (e *Engine) TotalNodes() int { return e.view().totalNodes }

// DocFreq returns the number of live corpus nodes containing term.
func (e *Engine) DocFreq(term string) int { return e.view().df.get(term) }

// PlannerDecisions reports the SLCA cost-planner tallies for queries
// executed on the live read path.
func (e *Engine) PlannerDecisions() (indexedLookup, scanEager int64) {
	return e.plannerIndexed.Load(), e.plannerScan.Load()
}
