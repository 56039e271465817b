package xseek

import (
	"fmt"
	"sync/atomic"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/slca"
	"repro/internal/xmltree"
)

// ErrEmptyQuery is returned when a query tokenizes to no keywords.
var ErrEmptyQuery = fmt.Errorf("xseek: empty query")

// Engine is an XSeek-style keyword search engine over one XML document:
// an inverted index, a schema summary, and SLCA + return-node logic.
//
// Search runs as a staged pipeline — tokenize → plan → SLCA →
// entity-map → label — with the first two stages reified as a Query
// value (Compile) so callers can inspect or override the plan.
type Engine struct {
	root   *xmltree.Node
	idx    *index.Index
	schema *Schema

	// Derived corpus constants, computed once at construction instead
	// of per ranking call: the corpus node count (a full tree walk) and
	// each term's inverse document frequency.
	totalNodes int
	idf        map[string]float64
	// idfID is the same table keyed by symbol ID — a dense slice, so
	// the ranking inner loop indexes an array instead of hashing the
	// term string. Only self-derived engines (initDerived) carry it;
	// shard engines share one late-filled idf map instead (see
	// FromPartsRanked) and resolve through that.
	idfID []float64

	// Cost-planner decision counters for this corpus's compiled
	// queries, surfaced through the serving layer's metrics.
	plannerIndexed atomic.Int64
	plannerScan    atomic.Int64
	// plannerStreamed counts ranked pages that ran the lazy pipeline
	// (orthogonal to the algorithm counters above: a streamed query
	// still picks a seek discipline).
	plannerStreamed atomic.Int64
}

// New builds an engine (index + schema summary) over root. The tree
// must carry Dewey IDs (xmltree.Parse assigns them).
func New(root *xmltree.Node) *Engine {
	e := &Engine{
		root:   root,
		idx:    index.Build(root),
		schema: InferSchema(root),
	}
	e.initDerived()
	return e
}

// FromParts assembles an engine from already-built derived state —
// typically an index and schema loaded from a snapshot (package
// persist) instead of rebuilt from the tree. The caller is responsible
// for the parts describing the same document; idx must be attached to
// root (index.OpenCompact does this).
func FromParts(root *xmltree.Node, idx *index.Index, schema *Schema) *Engine {
	e := &Engine{root: root, idx: idx, schema: schema}
	e.initDerived()
	return e
}

// initDerived computes the per-corpus ranking constants every
// construction path (New, NewParallel, FromParts) shares: the corpus
// node count and the IDF of every indexed term.
func (e *Engine) initDerived() {
	e.totalNodes = e.root.CountNodes()
	e.idfID = make([]float64, e.idx.Symbols().Len())
	e.idx.EachTermID(func(id uint32, df int) {
		if int(id) < len(e.idfID) {
			e.idfID[id] = IDF(e.totalNodes, df)
		}
	})
}

// termIDF resolves a term's precomputed IDF: by symbol ID when the
// engine derived its own table, else through the (possibly shared,
// late-filled) string-keyed map. 0 means the term contributes no
// weight — absent terms and terms present in every node alike, exactly
// as TermWeight treats them.
func (e *Engine) termIDF(t string) float64 {
	if e.idfID != nil {
		if id, ok := e.idx.TermID(t); ok && int(id) < len(e.idfID) {
			return e.idfID[id]
		}
		return 0
	}
	return e.idf[t]
}

// Root returns the document the engine searches.
func (e *Engine) Root() *xmltree.Node { return e.root }

// Schema returns the inferred schema summary.
func (e *Engine) Schema() *Schema { return e.schema }

// Index returns the underlying inverted index.
func (e *Engine) Index() *index.Index { return e.idx }

// TotalNodes returns the corpus node count, cached at construction.
func (e *Engine) TotalNodes() int { return e.totalNodes }

// PlannerDecisions reports how many compiled queries the SLCA cost
// planner routed to each seek discipline on this engine.
func (e *Engine) PlannerDecisions() (indexedLookup, scanEager int64) {
	return e.plannerIndexed.Load(), e.plannerScan.Load()
}

// StreamedDecisions reports how many ranked pages ran the streamed
// (early-terminating) pipeline on this engine.
func (e *Engine) StreamedDecisions() int64 { return e.plannerStreamed.Load() }

// Result is one search result: the entity subtree that contains an
// SLCA match, as XSeek's return-node inference dictates.
type Result struct {
	// Node is the result's root: the nearest entity ancestor-or-self
	// of the SLCA (or the SLCA itself when no entity encloses it).
	Node *xmltree.Node
	// Match is the SLCA node that triggered this result.
	Match *xmltree.Node
	// Label is a short human identifier: the value of the entity's
	// first name-like attribute, falling back to tag + Dewey ID.
	Label string
}

// ID returns the Dewey ID of the result root.
func (r *Result) ID() dewey.ID { return r.Node.ID }

// SearchOptions selects a window of a search's full result list.
type SearchOptions struct {
	// Limit caps the number of results returned; 0 (or negative)
	// returns all.
	Limit int
	// Offset skips that many results from the start; out-of-range
	// offsets yield an empty window, not an error.
	Offset int
	// Accuracy applies to the score-bounded (WAND) ranked paths:
	// AccuracyExact (default) keeps pages and totals bit-identical to
	// eager execution, AccuracyApprox may stop draining at the score
	// cutoff and report StreamTotalUnknown (wand.go).
	Accuracy Accuracy
}

// Window clamps the options to [lo, hi) slice bounds over a full
// result list of n entries. Callers holding a materialized list (the
// serving layer's caches) use it to cut pages without re-searching.
func (o SearchOptions) Window(n int) (lo, hi int) {
	lo = o.Offset
	if lo < 0 {
		lo = 0
	}
	if lo > n {
		lo = n
	}
	hi = n
	// Compare before adding: lo+Limit could overflow on an adversarial
	// Limit (e.g. MaxInt from an HTTP parameter), flipping hi negative.
	if o.Limit > 0 && o.Limit < n-lo {
		hi = lo + o.Limit
	}
	return lo, hi
}

// Query is a compiled keyword query: the outcome of the pipeline's
// tokenize and plan stages. The remaining stages (SLCA, entity
// mapping, labelling) run on Execute. Fields are read-only snapshots;
// Alg may be overwritten before Execute to force a seek discipline —
// it must name one of slca's algorithms, or Execute errors.
type Query struct {
	// Terms are the tokenized keywords.
	Terms []string
	// Lists are the resolved posting lists, in term order.
	Lists []index.PostingList
	// Stats are the plan statistics of Lists.
	Stats index.PlanStats
	// Alg is the planner's algorithm choice for the SLCA stage.
	Alg slca.Algorithm

	eng *Engine
}

// Compile runs the tokenize and plan stages: resolve the query's terms
// to posting lists and pick an SLCA algorithm from their shape. An
// empty query or one with unmatched keywords fails here, before any
// list is touched by the SLCA stage.
func (e *Engine) Compile(query string) (*Query, error) {
	terms := index.TokenizeQuery(query)
	if len(terms) == 0 {
		return nil, ErrEmptyQuery
	}
	lists, stats, err := e.idx.QueryLists(terms)
	if err != nil {
		return nil, err
	}
	alg := slca.Plan(stats)
	if alg == slca.AlgIndexedLookup {
		e.plannerIndexed.Add(1)
	} else {
		e.plannerScan.Add(1)
	}
	return &Query{Terms: terms, Lists: lists, Stats: stats, Alg: alg, eng: e}, nil
}

// SLCAs drains the lazy SLCA stage (SLCAIter) with the query's planned
// (or overridden) seek discipline; an unknown override yields nil.
func (q *Query) SLCAs() []dewey.ID {
	it, err := q.SLCAIter()
	if err != nil {
		return nil
	}
	return slca.Collect(it)
}

// Execute runs the remaining pipeline stages — SLCA, entity mapping,
// labelling — and returns the full result list in document order: a
// drain of Stream. An unrecognized Alg override is an error, not an
// empty result list.
func (q *Query) Execute() ([]*Result, error) {
	rs, err := q.Stream()
	if err != nil {
		return nil, err
	}
	return Drain(rs)
}

// MapToEntities runs the pipeline's entity-map + label stage on an SLCA
// set: each match is lifted to its nearest enclosing entity, matches
// falling in the same entity merge, and the survivors come back
// labelled in document order. The IDs must be in document order and
// free of duplicates. A match ID absent from the tree is an internal
// error.
//
// The sharded executor derives the SLCAs that land on its spine with
// whole-corpus knowledge and lifts them through this stage, the same
// EntityStream every search uses.
func (e *Engine) MapToEntities(matches []dewey.ID) ([]*Result, error) {
	return Drain(NewResultStream(NewEntityStream(slca.IterOver(matches), e.root, e.schema)))
}

// Search runs a keyword query and returns results in document order —
// the drained result cursor of SearchStream. Distinct SLCAs falling in
// the same entity are merged into one result. A query with no matches
// returns an empty slice and the index.NoMatchError describing the
// missing keywords.
func (e *Engine) Search(query string) ([]*Result, error) {
	q, err := e.Compile(query)
	if err != nil {
		return nil, err
	}
	return q.Execute()
}

// nameLikeTags are attribute tags that make good result labels, in
// preference order.
var nameLikeTags = []string{"name", "title", "id", "brand", "label"}

// LabelFor returns a short human identifier for an entity subtree: the
// value of its first name-like attribute, falling back to tag + Dewey
// ID. It is the single labelling rule shared by search results and the
// facade's Lift.
func LabelFor(n *xmltree.Node) string {
	for _, tag := range nameLikeTags {
		if c := n.FirstChildElement(tag); c != nil && c.IsLeafElement() {
			if v := c.Value(); v != "" {
				return v
			}
		}
	}
	return fmt.Sprintf("%s@%s", n.Tag, n.ID)
}

// DescribeResult renders a one-line, depth-limited summary of a result
// for listings (product name + first few attribute values), mirroring
// the result list of the demo UI.
func DescribeResult(r *Result, maxParts int) string {
	var buf [128]byte
	return string(AppendDescription(buf[:0], r, maxParts))
}

// AppendDescription appends DescribeResult's summary to b and returns
// the extended slice. It walks the result's children in place, so a
// caller appending into a reused buffer allocates nothing per result.
func AppendDescription(b []byte, r *Result, maxParts int) []byte {
	b = append(b, r.Label...)
	parts := 1
	for _, c := range r.Node.Children {
		if parts >= maxParts {
			break
		}
		if !c.IsLeafElement() {
			continue
		}
		if v := c.Value(); v != "" && v != r.Label {
			b = append(b, " | "...)
			b = append(b, c.Tag...)
			b = append(b, '=')
			b = append(b, v...)
			parts++
		}
	}
	return b
}
