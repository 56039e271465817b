package xseek

import (
	"fmt"
	"sort"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/slca"
	"repro/internal/xmltree"
)

// This file is the execution path every read takes: SLCAs pulled
// lazily from slca.Iterator are lifted to entities, deduplicated, and
// either emitted in document order (ResultStream — drained by Search,
// or paged with early termination) or fed to the ranked consumer
// (ConsumeRankedWAND in wand.go — exact top-k with scores bit-identical
// to ranking the full list). Reader runs it over any posting view; the
// shard legs reuse EntityStream and the consumer over a filtered SLCA
// stream.

// StreamTotalUnknown is the Total a streamed page reports when early
// termination stopped before the result count was known.
const StreamTotalUnknown = -1

// pathWalker resolves document-ordered Dewey IDs against a tree and
// schema while maintaining the root-to-node stack across calls, so n
// lookups cost amortized O(depth change) with no path-string
// allocation — the streaming replacement for NodeAt + NearestEntity.
type pathWalker struct {
	schema *Schema
	nodes  []*xmltree.Node // nodes[i] is the depth-i ancestor of the current node
	infos  []*typeInfo     // schema type of nodes[i] (nil off-schema / text)
	cur    dewey.ID        // ID the stack currently describes
	// One-entry memo for schema child-type resolution: consecutive
	// descents overwhelmingly step through siblings of one type (the
	// result entities), so the same (parent type, tag) pair repeats and
	// the map lookups can be skipped.
	memoParent *typeInfo
	memoTag    string
	memoChild  *typeInfo
}

func newPathWalker(root *xmltree.Node, schema *Schema) *pathWalker {
	schema.linkChildren()
	return &pathWalker{
		schema: schema,
		nodes:  []*xmltree.Node{root},
		infos:  []*typeInfo{schema.typeOf(root.Tag)},
	}
}

// descend moves the walker to id (which must not precede the previous
// target in document order) and returns its node, or nil when id is
// not in the tree.
func (w *pathWalker) descend(id dewey.ID) *xmltree.Node {
	keep := dewey.CommonPrefixLen(w.cur, id)
	w.nodes = w.nodes[:keep+1]
	w.infos = w.infos[:keep+1]
	for level := keep; level < len(id); level++ {
		parent := w.nodes[level]
		child := parent.ChildAt(id[level])
		if child == nil {
			return nil
		}
		var info *typeInfo
		if child.Kind == xmltree.Element {
			if parentInfo := w.infos[level]; parentInfo == w.memoParent && child.Tag == w.memoTag {
				info = w.memoChild
			} else {
				info = w.schema.childType(parentInfo, child.Tag)
				w.memoParent, w.memoTag, w.memoChild = parentInfo, child.Tag, info
			}
		}
		w.nodes = append(w.nodes, child)
		w.infos = append(w.infos, info)
	}
	w.cur = append(w.cur[:0], id...)
	return w.nodes[len(w.nodes)-1]
}

// nearestEntity returns the deepest stack entry that is an entity
// instance, or nil — exactly NearestEntity over the current node.
func (w *pathWalker) nearestEntity() *xmltree.Node {
	for i := len(w.infos) - 1; i >= 0; i-- {
		if isEntityInfo(w.infos[i]) {
			return w.nodes[i]
		}
	}
	return nil
}

// entityAncestorBlocks reports whether some entity at level 1..limit of
// the current stack is an ancestor-or-self of the entity at eID — the
// hold condition of the streamed entity buffer. limit must already be
// clamped to min(len(eID), CommonPrefixLen(eID, current)).
func (w *pathWalker) entityAncestorBlocks(limit int) bool {
	for i := 1; i <= limit && i < len(w.infos); i++ {
		if isEntityInfo(w.infos[i]) {
			return true
		}
	}
	return false
}

// EntityHit is one streamed search hit before labelling: the result
// entity and the SLCA match that produced it.
type EntityHit struct {
	Node  *xmltree.Node
	Match *xmltree.Node
}

// EntityStream lifts a document-ordered SLCA stream to a document-
// ordered stream of distinct result entities: each SLCA maps to its
// nearest entity ancestor-or-self (itself when none encloses it), and
// the first SLCA to reach an entity is its match. Entities are held in
// a small pending buffer until no unseen SLCA can map to them or one of
// their entity ancestors (which would reorder or duplicate the output),
// so every hit is emitted exactly once, in document order, as early as
// correctness allows.
type EntityStream struct {
	it      slca.Iterator
	w       *pathWalker
	pending []EntityHit
	out     []EntityHit // flushed, ready to emit (FIFO)
	outPos  int
	done    bool
	err     error
	// keep/drop implement FilterEntities: hits failing keep are
	// diverted to drop instead of emitted.
	keep func(*xmltree.Node) bool
	drop func(EntityHit)
}

// NewEntityStream builds an entity stream over the given SLCA iterator
// and live tree/schema pair. A stream whose SLCA is missing from the
// tree stops with an error.
func NewEntityStream(it slca.Iterator, root *xmltree.Node, schema *Schema) *EntityStream {
	return &EntityStream{it: it, w: newPathWalker(root, schema)}
}

// FilterEntities diverts hits whose entity fails keep to drop (when
// non-nil) instead of emitting them: consumers never see them and
// totals never count them. The sharded executor installs it so a leg
// keeps spine-rooted entities — whose matches can span shard groups —
// out of its own stream while still reporting them for the fan-out's
// cross-group fix-up. Deduplication runs before the filter, so drop
// sees each distinct entity at most once, in document order.
func (es *EntityStream) FilterEntities(keep func(*xmltree.Node) bool, drop func(EntityHit)) {
	es.keep = keep
	es.drop = drop
}

// Next returns the next result entity in document order.
func (es *EntityStream) Next() (EntityHit, bool) {
	for {
		if es.outPos < len(es.out) {
			h := es.out[es.outPos]
			es.outPos++
			if es.keep != nil && !es.keep(h.Node) {
				if es.drop != nil {
					es.drop(h)
				}
				continue
			}
			return h, true
		}
		es.out = es.out[:0]
		es.outPos = 0
		if es.done || es.err != nil {
			return EntityHit{}, false
		}
		m, ok := es.it.Next()
		if !ok {
			// Exhausted: everything pending is final.
			es.done = true
			es.out = append(es.out, es.pending...)
			es.pending = es.pending[:0]
			continue
		}
		matchNode := es.w.descend(m)
		if matchNode == nil {
			es.err = fmt.Errorf("xseek: internal: SLCA %v not in tree", m)
			return EntityHit{}, false
		}
		// Flush pending entities that no future SLCA can affect: a
		// later SLCA maps into entity e (duplicate) or an entity
		// ancestor of e (document-order inversion) only through an
		// entity ancestor-or-self of e that also contains the current
		// SLCA — i.e. an entity on the current stack at a level within
		// both e's ID and the common prefix.
		flushed := 0
		for flushed < len(es.pending) {
			e := es.pending[flushed]
			limit := dewey.CommonPrefixLen(e.Node.ID, m)
			if len(e.Node.ID) < limit {
				limit = len(e.Node.ID)
			}
			if es.w.entityAncestorBlocks(limit) {
				break
			}
			es.out = append(es.out, e)
			flushed++
		}
		if flushed > 0 {
			// Compact in place rather than advancing the slice base, so
			// the buffer's capacity keeps being reused (pending stays
			// tiny — usually one entry — so the copy is cheap).
			n := copy(es.pending, es.pending[flushed:])
			es.pending = es.pending[:n]
		}
		ent := es.w.nearestEntity()
		if ent == nil {
			ent = matchNode
		}
		es.insertPending(EntityHit{Node: ent, Match: matchNode})
	}
}

// insertPending adds a hit in document order, merging duplicates (the
// first match wins).
func (es *EntityStream) insertPending(h EntityHit) {
	k := sort.Search(len(es.pending), func(i int) bool {
		return es.pending[i].Node.ID.Compare(h.Node.ID) >= 0
	})
	if k < len(es.pending) && es.pending[k].Node.ID.Equal(h.Node.ID) {
		return
	}
	es.pending = append(es.pending, EntityHit{})
	copy(es.pending[k+1:], es.pending[k:])
	es.pending[k] = h
}

// Err reports a stream-terminating internal error, if any.
func (es *EntityStream) Err() error { return es.err }

// Cursor is the document-ordered pull interface over labelled search
// results that every executor's streaming path exposes: the lazy
// ResultStream, and a materialized fallback (SliceCursor) where a true
// stream is not available. After Next returns false, Err distinguishes
// exhaustion from an internal error.
type Cursor interface {
	Next() (*Result, bool)
	Err() error
}

// Drain pulls a cursor to exhaustion: every executor's doc-order
// Search is a drain of its own cursor.
func Drain(c Cursor) ([]*Result, error) {
	var out []*Result
	for {
		r, ok := c.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ResultStream is a pull cursor over labelled search results in
// document order; Execute drains it. Labels are computed per emitted
// result, so a consumer stopping after k results pays k labelling
// calls, not one per result.
type ResultStream struct {
	es *EntityStream
}

// NewResultStream wraps an entity stream in the labelling cursor — the
// bridge a shard leg uses to label its filtered stream.
func NewResultStream(es *EntityStream) *ResultStream { return &ResultStream{es: es} }

// Next returns the next result; after false, check Err.
func (rs *ResultStream) Next() (*Result, bool) {
	h, ok := rs.es.Next()
	if !ok {
		return nil, false
	}
	return &Result{Node: h.Node, Match: h.Match, Label: LabelFor(h.Node)}, true
}

// Err reports a stream-terminating internal error, if any.
func (rs *ResultStream) Err() error { return rs.es.Err() }

// SLCAIter returns the lazy SLCA stage of the compiled query: a
// pull-based iterator equivalent to SLCAs(), honouring the planned (or
// overridden) algorithm's seek discipline. The term with the fewest
// postings drives; the others answer neighbour probes by galloping
// (Indexed Lookup) or by linear advance (Scan).
func (q *Query) SLCAIter() (slca.Iterator, error) {
	alg := q.Alg
	if alg == slca.AlgAuto || alg == "" {
		alg = slca.Plan(q.Stats)
	}
	switch alg {
	case slca.AlgScanEager, slca.AlgIndexedLookup:
	default:
		return nil, fmt.Errorf("xseek: unknown SLCA algorithm %q", q.Alg)
	}
	lengths := q.Stats.Lengths
	smallest := 0
	for i, n := range lengths {
		if n == 0 {
			return slca.IterOver(nil), nil
		}
		if n < lengths[smallest] {
			smallest = i
		}
	}
	gallop := alg == slca.AlgIndexedLookup
	p := q.r.postings
	others := make([]index.Iter, 0, len(q.Terms)-1)
	for i, t := range q.Terms {
		if i != smallest {
			others = append(others, p.Iter(t, gallop))
		}
	}
	return slca.StreamIters(p.Iter(q.Terms[smallest], gallop), others), nil
}

// Stream runs the lazy pipeline — SLCA, entity mapping, labelling —
// returning a document-ordered result cursor. Consuming it to
// exhaustion yields exactly Execute's result list.
func (q *Query) Stream() (*ResultStream, error) {
	it, err := q.SLCAIter()
	if err != nil {
		return nil, err
	}
	return &ResultStream{es: NewEntityStream(it, q.r.root, q.r.schema)}, nil
}

// sliceCursor adapts a materialized result list to the Cursor shape.
type sliceCursor struct {
	results []*Result
	pos     int
}

// SliceCursor wraps an already-computed, document-ordered result list
// as a Cursor — the fallback for executors whose doc-order path has no
// lazy pipeline (the sharded fan-out materializes per-shard anyway).
func SliceCursor(results []*Result) Cursor { return &sliceCursor{results: results} }

func (c *sliceCursor) Next() (*Result, bool) {
	if c.pos >= len(c.results) {
		return nil, false
	}
	r := c.results[c.pos]
	c.pos++
	return r, true
}

func (c *sliceCursor) Err() error { return nil }

// Scorer computes one entity's full relevance score. The weight
// formula is shared with eager scoring so streamed scores stay
// bit-identical to eager ones.
type Scorer func(entity dewey.ID) float64

// StreamScorer returns the scorer for the query's terms: per-term
// monotone counters over the materialised posting lists, weighted with
// the view's IDF and accumulated in query order exactly as eager
// scoring does, so streamed scores are bit-identical to eager ones.
// Entities must be scored in document order (the EntityStream emission
// order).
func (r Reader) StreamScorer(terms []string) Scorer {
	type termCursor struct {
		idf     float64
		counter index.Counter
	}
	cursors := make([]termCursor, 0, len(terms))
	for _, t := range terms {
		idf := r.postings.IDF(t)
		if idf == 0 {
			continue // no weight: contributes nothing, as eager skips it
		}
		cursors = append(cursors, termCursor{idf: idf, counter: index.NewCounter(r.postings.List(t))})
	}
	return func(id dewey.ID) float64 {
		score := 0.0
		for i := range cursors {
			if tf := cursors[i].counter.CountUnder(id); tf > 0 {
				score += TermWeight(tf, cursors[i].idf)
			}
		}
		return score
	}
}

// streamHit is one scored entity awaiting the top-k cut. ord is the
// emission index — document order, the ranking tie-break.
type streamHit struct {
	hit   EntityHit
	score float64
	ord   int
}

// streamHeap is a bounded min-heap of the best hits so far, ordered
// exactly like rankHeap (score desc, document order asc) so the drain
// equals the same window of the eager stable ranking.
type streamHeap []streamHit

func (h streamHeap) beats(a, b streamHit) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.ord < b.ord
}
func (h streamHeap) Len() int           { return len(h) }
func (h streamHeap) Less(i, j int) bool { return h.beats(h[j], h[i]) } // min-heap: worst on top
func (h streamHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *streamHeap) Push(x any)        { *h = append(*h, x.(streamHit)) }
func (h *streamHeap) Pop() any          { old := *h; n := len(old) - 1; v := old[n]; *h = old[:n]; return v }

// EstimateResults bounds the query's result count for stream planning:
// the smallest document frequency of its keywords, 0 when the query
// cannot match. It is a cheap upper bound, not an exact count.
func EstimateResults(v Vocabulary, query string) int {
	terms := index.TokenizeQuery(query)
	if len(terms) == 0 {
		return 0
	}
	est := -1
	for _, t := range terms {
		df := v.DocFreq(t)
		if df == 0 {
			return 0
		}
		if est == -1 || df < est {
			est = df
		}
	}
	return est
}

// EstimateResults bounds the query's result count over the engine's
// index (see the package function).
func (e *Engine) EstimateResults(query string) int { return EstimateResults(e.idx, query) }
