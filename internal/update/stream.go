package update

import (
	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/slca"
	"repro/internal/xseek"
)

// This file is the live read path's lazy twin: composite posting
// sequences (base parts ⊕ delta − tombstones) exposed as iterators
// instead of materialized lists, driving the streamed SLCA and
// entity-mapping stages over the live tree — the doc-order cursor here,
// the ranked page in wand.go. Snapshots are immutable, so a stream
// stays consistent across concurrent writes — it simply keeps reading
// the epoch it was opened on.

// termIter returns the lazy composite iterator for one term: the base
// parts and the delta list merged on the fly, tombstoned subtrees
// skipped during iteration. Equivalent to iterating state.list(term)
// without allocating the merged list. gallop selects skip-accelerated
// seeks (the streamed IndexedLookup discipline) over linear advance.
func (s *state) termIter(term string, gallop bool) index.Iter {
	mk := index.ListIterLinear
	if gallop {
		mk = index.ListIter
	}
	parts := s.src.postings(term)
	iters := make([]index.Iter, 0, len(parts)+1)
	for _, p := range parts {
		if len(p) > 0 {
			iters = append(iters, mk(p))
		}
	}
	if s.delta != nil {
		if l := s.delta.Lookup(term); len(l) > 0 {
			iters = append(iters, mk(l))
		}
	}
	if len(iters) == 0 {
		return index.EmptyIter()
	}
	it := index.MergeIter(iters...)
	if len(s.tombstones) > 0 {
		it = index.WithoutIter(it, s.tombstones)
	}
	return it
}

// planStats derives plan statistics from the maintained exact document
// frequencies — the live twin of index.StatsOf over materialized
// composite lists, available without materializing them.
func (s *state) planStats(terms []string) index.PlanStats {
	st := index.PlanStats{Lengths: make([]int, len(terms))}
	for i, t := range terms {
		n := s.df.get(t)
		st.Lengths[i] = n
		if i == 0 || n < st.Min {
			st.Min = n
		}
		if n > st.Max {
			st.Max = n
		}
	}
	if st.Min > 0 {
		st.Skew = float64(st.Max) / float64(st.Min)
	}
	return st
}

// slcaIter builds the lazy SLCA stage over the live composite
// sequences: the rarest term drives, the others answer neighbour
// probes with the planned seek discipline. Counts the planner decision
// on the engine's counters, once per read.
func (s *state) slcaIter(terms []string, counters *Engine) slca.Iterator {
	stats := s.planStats(terms)
	alg := slca.Plan(stats)
	if counters != nil {
		if alg == slca.AlgIndexedLookup {
			counters.plannerIndexed.Add(1)
		} else {
			counters.plannerScan.Add(1)
		}
	}
	gallop := alg == slca.AlgIndexedLookup
	smallest := 0
	for i, t := range terms {
		if s.df.get(t) < s.df.get(terms[smallest]) {
			smallest = i
		}
	}
	others := make([]index.Iter, 0, len(terms)-1)
	for i, t := range terms {
		if i != smallest {
			others = append(others, s.termIter(t, gallop))
		}
	}
	return slca.StreamIters(s.termIter(terms[smallest], gallop), others)
}

// compileStream tokenizes and keyword-checks a query against one live
// snapshot — the shared front half of the streamed read paths.
func compileStream(s *state, query string) ([]string, error) {
	terms := index.TokenizeQuery(query)
	if len(terms) == 0 {
		return nil, xseek.ErrEmptyQuery
	}
	var missing []string
	for _, t := range terms {
		if s.df.get(t) == 0 {
			missing = append(missing, t)
		}
	}
	if len(missing) > 0 {
		return nil, &index.NoMatchError{Terms: missing}
	}
	return terms, nil
}

// SearchStream returns a lazy doc-order result cursor over the live
// corpus. The cursor reads the snapshot current at the call, so it
// stays valid — and internally consistent — while writes land; it just
// does not see them.
func (e *Engine) SearchStream(query string) (xseek.Cursor, error) {
	s := e.view()
	terms, err := compileStream(s, query)
	if err != nil {
		return nil, err
	}
	it := s.slcaIter(terms, e)
	return xseek.NewResultStream(xseek.NewEntityStream(it, s.root, s.schema)), nil
}

// streamScorer returns the live scorer for the query's terms: monotone
// counters over the materialized composite lists with the live IDF,
// replicating scoreResults' accumulation exactly so streamed scores
// are bit-identical to eager ones.
func (s *state) streamScorer(terms []string) xseek.Scorer {
	type termCursor struct {
		idf     float64
		counter index.Counter
	}
	lists := make(map[string]index.PostingList, len(terms))
	cursors := make([]termCursor, 0, len(terms))
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
		cursors = append(cursors, termCursor{idf: xseek.IDF(s.totalNodes, df), counter: index.NewCounter(l)})
	}
	return func(id dewey.ID) float64 {
		score := 0.0
		for i := range cursors {
			if tf := cursors[i].counter.CountUnder(id); tf > 0 {
				score += xseek.TermWeight(tf, cursors[i].idf)
			}
		}
		return score
	}
}

// EstimateResults bounds the query's live result count for stream
// planning: the smallest term's exact document frequency, 0 when the
// query cannot match.
func (e *Engine) EstimateResults(query string) int {
	s := e.view()
	terms := index.TokenizeQuery(query)
	if len(terms) == 0 {
		return 0
	}
	est := -1
	for _, t := range terms {
		df := s.df.get(t)
		if df == 0 {
			return 0
		}
		if est == -1 || df < est {
			est = df
		}
	}
	return est
}

// StreamedDecisions reports how many ranked pages ran the streamed
// pipeline on the live read path.
func (e *Engine) StreamedDecisions() int64 { return e.plannerStreamed.Load() }
