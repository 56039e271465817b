package xseek

import (
	"fmt"

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

	// counters tallies this corpus's planner and streamed-page
	// decisions (PlannerDecisions, StreamedDecisions) for the serving
	// layer's metrics.
	counters
	// reader is the query pipeline over the engine's own index; its
	// methods (Compile, SearchStream, RankResults, RankPage,
	// SearchRankedPageWAND, StreamScorer, TermBounds) are the
	// engine's.
	reader
}

// The embedded fields' type names: unexported, so the fields stay
// private while their methods are promoted.
type (
	counters = Counters
	reader   = Reader
)

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
	e.initReader()
}

// initReader installs the query pipeline over the engine's own index.
func (e *Engine) initReader() {
	e.reader = Reader{root: e.root, schema: e.schema, postings: (*indexView)(e), counters: &e.counters, lists: true}
}

// Root returns the document the engine searches.
func (e *Engine) Root() *xmltree.Node { return e.root }

// Schema returns the inferred schema summary.
func (e *Engine) Schema() *Schema { return e.schema }

// Index returns the underlying inverted index.
func (e *Engine) Index() *index.Index { return e.idx }

// TotalNodes returns the corpus node count, cached at construction.
func (e *Engine) TotalNodes() int { return e.totalNodes }

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
	// Lists are the resolved posting lists, in term order; nil on a
	// live view, which streams its composite postings instead.
	Lists []index.PostingList
	// Stats are the plan statistics of the terms' postings.
	Stats index.PlanStats
	// Alg is the planner's algorithm choice for the SLCA stage.
	Alg slca.Algorithm

	r Reader
}

// Keywords is the pipeline's keyword check: the query's distinct
// tokens in query order, ErrEmptyQuery when there are none, or an
// index.NoMatchError naming, in query order, every token v has no
// postings for.
func Keywords(v Vocabulary, query string) ([]string, error) {
	terms, _, err := plan(v, query)
	return terms, err
}

// plan runs the keyword check and summarises the terms' document
// frequencies for the SLCA planner.
func plan(v Vocabulary, query string) ([]string, index.PlanStats, error) {
	terms := index.TokenizeQuery(query)
	if len(terms) == 0 {
		return nil, index.PlanStats{}, ErrEmptyQuery
	}
	lengths := make([]int, len(terms))
	var missing []string
	for i, t := range terms {
		if lengths[i] = v.DocFreq(t); lengths[i] == 0 {
			missing = append(missing, t)
		}
	}
	if len(missing) > 0 {
		return nil, index.PlanStats{}, &index.NoMatchError{Terms: missing}
	}
	return terms, index.LengthStats(lengths), nil
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
