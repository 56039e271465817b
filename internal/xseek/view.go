package xseek

import (
	"sync/atomic"

	"repro/internal/index"
	"repro/internal/slca"
	"repro/internal/xmltree"
)

// This file is the seam between the query pipeline and where a term's
// postings live. The pipeline — keyword check, seek-discipline plan,
// lazy SLCA, entity lifting, TF-IDF scoring, block-max bounds — runs
// once, in Reader, over a Postings view: the engine's own index
// (indexView below), or the live layer's base ⊕ delta − tombstones
// composition (package update). The df-only helpers (Keywords,
// EstimateResults, CleanQuery) read just a Vocabulary, which the
// sharded fan-out's aggregated frequency table also provides.

// Vocabulary is the document-frequency half of a posting view.
// *index.Index satisfies it.
type Vocabulary interface {
	// DocFreq returns the number of corpus nodes containing term.
	DocFreq(term string) int
	// EachTerm visits every term once with its document frequency, in
	// any order.
	EachTerm(f func(term string, df int))
}

// Postings is a per-term view of one read-consistent corpus's
// postings. Lists are document-ordered; List, Iter and Bound must
// describe the same sequence, DocFreq its length.
type Postings interface {
	Vocabulary
	// IDF returns the term's whole-corpus inverse document frequency
	// (see IDF); 0 means the term carries no weight — it is absent, or
	// in every node — and scoring skips it.
	IDF(term string) float64
	// List returns the term's materialised posting list.
	List(term string) index.PostingList
	// Iter returns a lazy cursor over the term's postings whose Seek
	// gallops (gallop) or advances linearly — the SLCA plan's seek
	// discipline. The SLCA stage's driver is only pulled with Next.
	Iter(term string, gallop bool) index.Iter
	// Bound returns a block-max cursor bounding the term's tf under
	// any non-root node.
	Bound(term string) index.BoundCursor
}

// Counters tallies one executor's read-path decisions for the serving
// layer's metrics: compiled queries per SLCA seek discipline, and
// ranked pages that ran the lazy pipeline.
type Counters struct {
	indexed, scan, streamed atomic.Int64
}

// PlannerDecisions reports how many compiled queries the SLCA cost
// planner routed to each seek discipline.
func (c *Counters) PlannerDecisions() (indexedLookup, scanEager int64) {
	return c.indexed.Load(), c.scan.Load()
}

// StreamedDecisions reports how many ranked pages ran the lazy
// pipeline.
func (c *Counters) StreamedDecisions() int64 { return c.streamed.Load() }

// Reader runs the query pipeline over one read-consistent corpus. It
// is a small value; take one per read.
type Reader struct {
	root     *xmltree.Node
	schema   *Schema
	postings Postings
	counters *Counters
	// lists makes Compile resolve Query.Lists: the index-backed engine
	// sets it; a live view never materialises its composite postings
	// for the SLCA stage.
	lists bool
}

// NewReader returns the pipeline over the corpus under root, described
// by schema, reading postings and tallying its decisions on counters.
func NewReader(root *xmltree.Node, schema *Schema, postings Postings, counters *Counters) Reader {
	return Reader{root: root, schema: schema, postings: postings, counters: counters}
}

// ReaderCounting returns the engine's own query pipeline — over its
// index, skip ladders and precomputed IDFs — tallying its decisions on
// c instead of the engine's counters: the live layer reads an
// unwritten base through it and keeps its counts across compactions.
func (e *Engine) ReaderCounting(c *Counters) Reader {
	r := e.reader
	r.counters = c
	return r
}

// Compile runs the tokenize and plan stages: the keyword check, then an
// SLCA seek discipline picked from the terms' document frequencies. An
// empty query or one with unmatched keywords fails here, before any
// posting is read.
func (r Reader) Compile(query string) (*Query, error) {
	terms, stats, err := plan(r.postings, query)
	if err != nil {
		return nil, err
	}
	alg := slca.Plan(stats)
	if alg == slca.AlgIndexedLookup {
		r.counters.indexed.Add(1)
	} else {
		r.counters.scan.Add(1)
	}
	q := &Query{Terms: terms, Stats: stats, Alg: alg, r: r}
	if r.lists {
		q.Lists = make([]index.PostingList, len(terms))
		for i, t := range terms {
			q.Lists[i] = r.postings.List(t)
		}
	}
	return q, nil
}

// SearchStream compiles the query and returns the lazy doc-order
// result cursor.
func (r Reader) SearchStream(query string) (Cursor, error) {
	q, err := r.Compile(query)
	if err != nil {
		return nil, err
	}
	return q.Stream()
}

// SearchRankedPageWAND compiles the query and returns the options'
// window of the relevance ranking through the score-bounded consumer:
// in exact mode the same page bytes and total as a drained
// SearchStream + RankPage, with pruning stats alongside. It counts
// toward StreamedDecisions — the counter reports pages that ran the
// lazy pipeline, however bounded.
func (r Reader) SearchRankedPageWAND(query string, opts SearchOptions) ([]*RankedResult, int, WANDStats, error) {
	q, err := r.Compile(query)
	if err != nil {
		return nil, 0, WANDStats{}, err
	}
	r.counters.streamed.Add(1)
	return q.RankWAND(opts, nil)
}

// indexView is the engine as the posting view over its own index.
type indexView Engine

func (v *indexView) DocFreq(term string) int              { return v.idx.DocFreq(term) }
func (v *indexView) EachTerm(f func(term string, df int)) { v.idx.EachTerm(f) }
func (v *indexView) List(term string) index.PostingList   { return v.idx.Lookup(term) }

// IDF resolves the precomputed IDF: by symbol ID when the engine
// derived its own table, else through the (possibly shared,
// late-filled) string-keyed map of a shard engine.
func (v *indexView) IDF(term string) float64 {
	if v.idfID != nil {
		if id, ok := v.idx.TermID(term); ok && int(id) < len(v.idfID) {
			return v.idfID[id]
		}
		return 0
	}
	return v.idf[term]
}

// Iter gallops on the index's skip ladders.
func (v *indexView) Iter(term string, gallop bool) index.Iter {
	if gallop {
		return v.idx.TermIter(term)
	}
	return index.ListIterLinear(v.idx.Lookup(term))
}

func (v *indexView) Bound(term string) index.BoundCursor { return v.idx.TermBounds(term).Cursor() }
