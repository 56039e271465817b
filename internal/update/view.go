package update

import (
	"repro/internal/index"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// This file is the live read side. A state is an xseek.Postings view of
// the live logical corpus, base ⊕ delta − tombstones, composed per term
// at read time; the xseek pipeline (keyword check, plan, SLCA, entity
// lifting, scoring, bounds) runs over it unchanged, so the live engine
// answers exactly as a cold build of the same corpus would. Snapshots
// are immutable, so a read — a stream included — stays consistent
// across concurrent writes: it keeps reading the epoch it started on.
//
// A state with no pending writes is exactly the base's corpus, so it
// reads the base engine's own index instead: the same pipeline over the
// skip ladders, precomputed IDFs and materialised lists of the base,
// with none of the per-term composite cursors a written state needs. An engine therefore reads the same
// way from construction until its first write, and again after each
// compaction.

// cleanBase returns the base when nothing is pending over it, else
// nil.
func (s *state) cleanBase() *xseek.Engine {
	if len(s.journal) == 0 {
		return s.baseX
	}
	return nil
}

// reader is the query pipeline over the current snapshot.
func (e *Engine) reader() xseek.Reader {
	s := e.view()
	if x := s.cleanBase(); x != nil {
		return x.ReaderCounting(&e.counters)
	}
	return xseek.NewReader(s.root, s.schema, s, &e.counters)
}

// vocabulary is the current snapshot's document-frequency view.
func (e *Engine) vocabulary() xseek.Vocabulary {
	s := e.view()
	if x := s.cleanBase(); x != nil {
		return x.Index()
	}
	return s
}

// SearchStream returns a lazy doc-order result cursor over the live
// corpus. It reads the snapshot current at the call, so it stays valid
// while writes land; it just does not see them.
func (e *Engine) SearchStream(query string) (xseek.Cursor, error) {
	return e.reader().SearchStream(query)
}

// SearchRankedPageWAND returns a window of the live relevance ranking
// through the score-bounded consumer.
func (e *Engine) SearchRankedPageWAND(query string, opts xseek.SearchOptions) ([]*xseek.RankedResult, int, xseek.WANDStats, error) {
	return e.reader().SearchRankedPageWAND(query, opts)
}

// RankResults orders a result set by its live TF-IDF score.
func (e *Engine) RankResults(results []*xseek.Result, query string) []*xseek.RankedResult {
	return e.reader().RankResults(results, query)
}

// EstimateResults bounds the query's live result count.
func (e *Engine) EstimateResults(query string) int {
	return xseek.EstimateResults(e.vocabulary(), query)
}

// CleanQuery spell-corrects each keyword against the live vocabulary.
func (e *Engine) CleanQuery(query string) []string { return xseek.CleanQuery(e.vocabulary(), query) }

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

// DocFreq, EachTerm and IDF read the exact live statistics, maintained
// across writes without materialising any composite list.
func (s *state) DocFreq(term string) int              { return s.df.get(term) }
func (s *state) EachTerm(f func(term string, df int)) { s.df.each(f) }

func (s *state) IDF(term string) float64 {
	if df := s.df.get(term); df > 0 {
		return xseek.IDF(s.totalNodes, df)
	}
	return 0
}

// List materializes the live composite posting list for one term: the
// base list merged with the delta list, minus every posting under a
// tombstone. Scoring reads it; the SLCA stage reads Iter instead.
func (s *state) List(term string) index.PostingList {
	base := s.without(s.baseX.Index().Lookup(term))
	if s.delta == nil {
		return base
	}
	return index.MergeLists(base, s.without(s.delta.Lookup(term)))
}

// without drops the postings under tombstones.
func (s *state) without(l index.PostingList) index.PostingList {
	if len(s.tombstones) == 0 {
		return l
	}
	return index.Without(l, s.tombstones)
}

// Iter returns the lazy composite iterator for one term: the base and
// delta lists merged on the fly, tombstoned subtrees skipped during
// iteration — List's sequence without allocating it. Filtering must
// happen before the SLCA stage: removing a subtree's witnesses can
// surface new, shallower SLCAs, not just hide old ones.
func (s *state) Iter(term string, gallop bool) index.Iter {
	mk := index.ListIterLinear
	if gallop {
		mk = index.ListIter
	}
	iters := make([]index.Iter, 0, 2)
	if l := s.baseX.Index().Lookup(term); len(l) > 0 {
		iters = append(iters, mk(l))
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

// Bound composes the term's block-max bound over the live corpus as
// the max of the base's and the delta's. Added entities receive fresh
// top-level ordinals the base never used, so any non-root node's
// postings live entirely on one side — the delta for added subtrees,
// the base for original ones — and the max of the two sides bounds
// both; a term the delta lacks reads the base cursor alone.
// Tombstones only remove postings; ignoring them keeps every bound
// admissible and never raises one.
func (s *state) Bound(term string) index.BoundCursor {
	base := s.baseX.Index().TermBounds(term).Cursor()
	if s.delta == nil {
		return base
	}
	if lb := s.delta.TermBounds(term); lb.Blocks() > 0 {
		return index.MaxBoundCursor(base, lb.Cursor())
	}
	return base
}
