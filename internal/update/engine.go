package update

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// JournalOp is one durable write: an entity addition (the fragment's
// XML, replayed through AddEntity) or a removal (the victim's top-level
// ordinal). A live snapshot's journal section records the ops since
// the last compaction so a restart can replay pending writes onto the
// reloaded base.
type JournalOp struct {
	// Remove discriminates the variants.
	Remove bool
	// XML is the added entity's serialized subtree (Remove == false).
	XML string
	// Ord is the affected entity's top-level ordinal. For adds it is
	// informational (replay re-derives it); for removes it identifies
	// the victim.
	Ord int
}

// Engine is a live, updatable executor over one corpus. It implements
// the same query surface as xseek.Engine — SearchStream, CleanQuery,
// RankResults, SearchRankedPageWAND, corpus statistics — and is safe
// for any number of concurrent readers alongside one writer at a time
// (writers serialize internally).
type Engine struct {
	writeMu sync.Mutex // serializes AddEntity / RemoveEntity / Compact
	cur     atomic.Pointer[state]

	// evidence caches each top-level child's schema contribution.
	// Writer-only (guarded by writeMu).
	evidence map[*xmltree.Node]*xseek.Evidence
	rootTag  string

	// counters tallies the planner decisions of live reads
	// (PlannerDecisions, StreamedDecisions): one per compiled query
	// whatever the base's layout, since the pipeline runs once over the
	// posting view.
	counters
	updates, compactions atomic.Int64
}

// counters names the embedded tallies' type: unexported, so the field
// stays private while its methods are promoted.
type counters = xseek.Counters

// topEntry locates one live top-level element child by its Dewey
// ordinal. Ordinals are never reused, so after removals the sequence
// may have holes; lookups binary-search it.
type topEntry struct {
	ord  int
	node *xmltree.Node
}

// state is one immutable snapshot of the live corpus. Every mutation
// installs a fresh state; readers load it once per operation and never
// see a torn view.
type state struct {
	epoch uint64

	// baseX is the immutable one-index base the pending writes are
	// layered over; nil for a base held as several parts (WrapParts).
	baseX    *xseek.Engine
	baseRoot *xmltree.Node
	// parts are the base's indexes — baseX's one index, or the parts
	// WrapParts was given. Their lists are document-ordered and
	// pairwise disjoint per term.
	parts []*index.Index

	// root is the live document: a copy-on-write clone of the base root
	// whose children are exactly the live top-level subtrees (added
	// entities appended, removed ones absent). Subtrees below the root
	// are shared with the base and immutable.
	root   *xmltree.Node
	schema *xseek.Schema
	top    []topEntry
	// nextOrd is the Dewey ordinal the next added entity receives.
	// Ordinals of removed entities are never reused, so existing
	// postings stay unambiguous until compaction renumbers.
	nextOrd int

	tombstones []dewey.ID // sorted, top-level IDs of removed entities
	deltaRoots []*xmltree.Node
	delta      *index.Index // over deltaRoots; nil when none

	// Exact whole-corpus statistics for the live logical corpus.
	df         freqs
	totalNodes int
	elements   int
	// tagCounts tallies the live element children per tag — the root's
	// sibling-count evidence for the incremental schema fold.
	tagCounts map[string]int

	journal []JournalOp // pending ops since the last compaction
}

// Wrap makes a monolithic engine updatable. The wrapped engine must not
// be mutated by anyone else afterwards.
func Wrap(x *xseek.Engine) *Engine { return wrap(baseState(x, 0)) }

// WrapParts makes a base held as several indexes updatable: parts must
// index pairwise disjoint node sets of root whose union is the whole
// tree, as a partition's spine and shard indexes do, and should share
// one symbol table. Reads run over the parts as one posting view, with
// document frequencies and the element count summed across them; the
// first compaction folds the base into one index.
func WrapParts(root *xmltree.Node, schema *xseek.Schema, parts []*index.Index) *Engine {
	return wrap(partsState(root, schema, parts, root.CountNodes()))
}

func wrap(s *state) *Engine {
	e := &Engine{evidence: make(map[*xmltree.Node]*xseek.Evidence), rootTag: s.root.Tag}
	e.cur.Store(s)
	return e
}

// baseSymbols returns the symbol table delta indexes should intern
// into: the base's, so merged lists stay ID-aligned.
func (s *state) baseSymbols() *index.SymbolTable { return s.parts[0].Symbols() }

// baseState builds the clean state over a one-index base, fresh or
// just compacted.
func baseState(x *xseek.Engine, epoch uint64) *state {
	s := partsState(x.Root(), x.Schema(), []*index.Index{x.Index()}, x.TotalNodes())
	s.epoch, s.baseX = epoch, x
	return s
}

// partsState builds a clean state over base parts: no delta, no
// tombstones, statistics summed off the parts.
func partsState(root *xmltree.Node, schema *xseek.Schema, parts []*index.Index, totalNodes int) *state {
	s := &state{baseRoot: root, root: root, schema: schema, parts: parts, totalNodes: totalNodes}
	df := make(map[string]int)
	for _, p := range parts {
		p.EachTerm(func(t string, n int) { df[t] += n })
		s.elements += p.Stats().IndexedElements
	}
	s.df = newFreqs(df)
	s.top = topEntries(s.baseRoot)
	s.tagCounts = make(map[string]int, 4)
	for _, t := range s.top {
		s.tagCounts[t.node.Tag]++
	}
	s.nextOrd = len(s.baseRoot.Children)
	return s
}

// topEntries lists the root's element children with their ordinals. On
// a clean base tree child positions equal Dewey ordinals (AssignIDs
// numbers text children too).
func topEntries(root *xmltree.Node) []topEntry {
	out := make([]topEntry, 0, len(root.Children))
	for i, c := range root.Children {
		if c.Kind == xmltree.Element {
			out = append(out, topEntry{ord: i, node: c})
		}
	}
	return out
}

// view returns the current immutable state.
func (e *Engine) view() *state { return e.cur.Load() }

// Epoch returns the state's monotonically increasing version. Any
// mutation — add, remove, or compaction — bumps it; the serving layer
// tags cache entries with it.
func (e *Engine) Epoch() uint64 { return e.view().epoch }

// BaseXseek returns the current one-index base, or nil for a base
// still held as parts. Compaction replaces the base, so do not retain
// the result.
func (e *Engine) BaseXseek() *xseek.Engine { return e.view().baseX }

// Pending reports the delta and tombstone backlog awaiting compaction.
func (e *Engine) Pending() (deltaEntities, tombstones int) {
	s := e.view()
	return len(s.deltaRoots), len(s.tombstones)
}

// PendingOps returns the journal length — the number of writes since
// the last compaction, the quantity auto-compaction thresholds watch.
func (e *Engine) PendingOps() int { return len(e.view().journal) }

// Updates returns the lifetime add+remove count.
func (e *Engine) Updates() int64 { return e.updates.Load() }

// Compactions returns the lifetime compaction count.
func (e *Engine) Compactions() int64 { return e.compactions.Load() }

// Journal returns a copy of the pending ops since the last compaction,
// in application order.
func (e *Engine) Journal() []JournalOp {
	s := e.view()
	out := make([]JournalOp, len(s.journal))
	copy(out, s.journal)
	return out
}

// SnapshotParts returns one consistent view of the persistence
// surface: the base tree, its one-index base (nil for a base still
// held as parts), and the journal of pending writes layered over it.
func (e *Engine) SnapshotParts() (baseRoot *xmltree.Node, x *xseek.Engine, journal []JournalOp) {
	s := e.view()
	journal = make([]JournalOp, len(s.journal))
	copy(journal, s.journal)
	return s.baseRoot, s.baseX, journal
}

// IndexStats returns aggregate index statistics for the live corpus,
// equal to the statistics a cold index over it would report.
func (e *Engine) IndexStats() index.Stats {
	s := e.view()
	return index.Stats{Terms: s.df.terms, Postings: s.df.postings, IndexedElements: s.elements}
}

// AddEntity appends an entity subtree as a new top-level child of the
// live document, assigns it fresh Dewey labels after the current last
// ordinal, and indexes it into the delta. The engine takes ownership of
// n (callers must not retain or mutate it). It returns the new entity's
// Dewey ID — the handle RemoveEntity accepts.
func (e *Engine) AddEntity(n *xmltree.Node) (dewey.ID, error) {
	if n == nil || n.Kind != xmltree.Element {
		return nil, fmt.Errorf("update: AddEntity requires an element subtree")
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	s := e.view()

	ord := s.nextOrd
	id := dewey.New(ord)
	n.AssignIDs(id)
	// Serialize for the journal before wiring the node in, so the
	// fragment round-trips standalone.
	fragment := xmltree.XMLString(n)

	ns := &state{
		epoch: s.epoch + 1,
		baseX: s.baseX, baseRoot: s.baseRoot, parts: s.parts,
		root:       rootWith(s.root, nil, n),
		nextOrd:    ord + 1,
		tombstones: s.tombstones,
		totalNodes: s.totalNodes + n.CountNodes(),
	}
	n.Parent = ns.root
	ns.top = append(s.top[:len(s.top):len(s.top)], topEntry{ord: ord, node: n})
	ns.deltaRoots = append(s.deltaRoots[:len(s.deltaRoots):len(s.deltaRoots)], n)

	// Index only the new entity and append its lists onto the existing
	// delta (the new ordinal follows every delta ordinal, so Merge's
	// document-order precondition holds): each add costs O(entity),
	// not a re-index of the whole pending delta.
	// The delta interns into the base's symbol table so base and delta
	// lists agree on symbol IDs — Merge's ID-direct fast path, and one
	// shared symbol section if this state gets snapshotted as v4.
	ent := index.BuildForestShared(ns.root, []*xmltree.Node{n}, s.baseSymbols())
	if s.delta != nil {
		ns.delta = index.Merge(ns.root, s.delta, ent)
	} else {
		ns.delta = ent
	}
	ns.df = s.df.adjusted(termContrib(ent), +1)
	ns.elements = s.elements + ent.Stats().IndexedElements

	ev := xseek.CollectEvidence(n, e.rootTag)
	e.evidence[n] = ev
	ns.tagCounts = copyCounts(s.tagCounts)
	ns.tagCounts[n.Tag]++
	ns.schema = s.schema.WithChildEvidence(ev, e.rootTag, n.Tag, ns.tagCounts[n.Tag])
	ns.journal = append(s.journal[:len(s.journal):len(s.journal)], JournalOp{XML: fragment, Ord: ord})

	e.updates.Add(1)
	e.cur.Store(ns)
	return id, nil
}

// RemoveEntity removes the top-level entity with the given Dewey ID
// from the live corpus: its subtree leaves the live tree and its ID
// joins the tombstone set, masking every base or delta posting under it
// until compaction physically drops them.
func (e *Engine) RemoveEntity(id dewey.ID) error {
	if len(id) != 1 {
		return fmt.Errorf("update: %v is not a top-level entity ID", id)
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	s := e.view()

	i := sort.Search(len(s.top), func(k int) bool { return s.top[k].ord >= id[0] })
	if i == len(s.top) || s.top[i].ord != id[0] {
		return fmt.Errorf("update: no live top-level entity %v", id)
	}
	victim := s.top[i].node

	ns := &state{
		epoch: s.epoch + 1,
		baseX: s.baseX, baseRoot: s.baseRoot, parts: s.parts,
		root:       rootWith(s.root, victim, nil),
		nextOrd:    s.nextOrd,
		deltaRoots: s.deltaRoots,
		delta:      s.delta,
		totalNodes: s.totalNodes - victim.CountNodes(),
	}
	ns.top = make([]topEntry, 0, len(s.top)-1)
	ns.top = append(append(ns.top, s.top[:i]...), s.top[i+1:]...)
	ns.tombstones = insertSorted(s.tombstones, id)

	vic := index.BuildForest(s.root, []*xmltree.Node{victim})
	ns.df = s.df.adjusted(termContrib(vic), -1)
	ns.elements = s.elements - vic.Stats().IndexedElements

	delete(e.evidence, victim)
	ns.tagCounts = copyCounts(s.tagCounts)
	if ns.tagCounts[victim.Tag]--; ns.tagCounts[victim.Tag] == 0 {
		delete(ns.tagCounts, victim.Tag)
	}
	// Removal can lower sibling maxima and instance tallies in ways a
	// fold cannot express; recompose from the cached evidence.
	ns.schema = e.composeSchema(ns)
	ns.journal = append(s.journal[:len(s.journal):len(s.journal)], JournalOp{Remove: true, Ord: id[0]})

	e.updates.Add(1)
	e.cur.Store(ns)
	return nil
}

// Compact folds the pending delta and tombstones back into a clean
// base under an epoch swap; in-flight readers keep their state and are
// never blocked. With only adds pending over one index, the delta
// posting lists are appended onto it; otherwise (tombstones pending,
// or a base held as parts) the live tree is pruned, renumbered, and
// rebuilt into one index — the amortized cost that keeps every earlier
// per-op write cheap. Compacting with nothing pending is a no-op.
func (e *Engine) Compact() error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	s := e.view()
	if len(s.tombstones) == 0 && len(s.deltaRoots) == 0 {
		return nil
	}

	var ns *state
	switch {
	case len(s.tombstones) == 0 && s.baseX != nil:
		merged := index.Merge(s.root, s.baseX.Index(), s.delta)
		idf := make(map[string]float64, s.df.terms)
		s.df.each(func(t string, n int) {
			idf[t] = xseek.IDF(s.totalNodes, n)
		})
		x := xseek.FromPartsRanked(s.root, merged, xseek.InferSchemaParallel(s.root, 0), s.totalNodes, idf)
		ns = baseState(x, s.epoch+1)
	default:
		ns = baseState(xseek.NewParallel(rebuildTree(s.root)), s.epoch+1)
		// The rebuild renumbered every subtree: cached evidence keyed by
		// the old nodes no longer describes the tree. Recollect lazily.
		e.evidence = make(map[*xmltree.Node]*xseek.Evidence)
	}

	e.compactions.Add(1)
	e.cur.Store(ns)
	return nil
}

// composeSchema recomposes the exact whole-corpus schema from the
// cached per-child evidence. Called with writeMu held.
func (e *Engine) composeSchema(s *state) *xseek.Schema {
	children := make([]*xmltree.Node, len(s.top))
	for i, t := range s.top {
		children[i] = t.node
	}
	return xseek.ComposeSchema(s.root, children, e.childEvidence)
}

func (e *Engine) childEvidence(c *xmltree.Node) *xseek.Evidence {
	if ev := e.evidence[c]; ev != nil {
		return ev
	}
	ev := xseek.CollectEvidence(c, e.rootTag)
	e.evidence[c] = ev
	return ev
}

// rootWith returns a copy-on-write clone of root whose children are
// root's minus `without` (when non-nil) plus `extra` appended (when
// non-nil). The clone is what makes reads lock-free: concurrent readers
// keep walking the old root while the new state exposes the new one,
// and the shared child subtrees are immutable either way.
func rootWith(root *xmltree.Node, without, extra *xmltree.Node) *xmltree.Node {
	nr := &xmltree.Node{Kind: root.Kind, Tag: root.Tag, Text: root.Text, ID: root.ID}
	if len(root.Attrs) > 0 {
		nr.Attrs = make([]xmltree.Attr, len(root.Attrs))
		copy(nr.Attrs, root.Attrs)
	}
	n := len(root.Children)
	if extra != nil {
		n++
	}
	nr.Children = make([]*xmltree.Node, 0, n)
	for _, c := range root.Children {
		if c != without {
			nr.Children = append(nr.Children, c)
		}
	}
	if extra != nil {
		nr.Children = append(nr.Children, extra)
	}
	return nr
}

// rebuildTree deep-clones the live document into a fresh, compactly
// renumbered tree, leaving the old one untouched for in-flight readers.
func rebuildTree(root *xmltree.Node) *xmltree.Node {
	fresh := &xmltree.Node{Kind: root.Kind, Tag: root.Tag, Text: root.Text}
	if len(root.Attrs) > 0 {
		fresh.Attrs = make([]xmltree.Attr, len(root.Attrs))
		copy(fresh.Attrs, root.Attrs)
	}
	for _, c := range root.Children {
		fresh.AppendChild(c.Clone())
	}
	fresh.AssignIDs(nil)
	return fresh
}

// termContrib collects an entity index's per-term document counts.
func termContrib(idx *index.Index) map[string]int {
	out := make(map[string]int)
	idx.EachTerm(func(t string, df int) { out[t] = df })
	return out
}

func copyCounts(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for t, n := range m {
		out[t] = n
	}
	return out
}

// insertSorted returns a fresh sorted ID list with id inserted.
func insertSorted(ids []dewey.ID, id dewey.ID) []dewey.ID {
	i := sort.Search(len(ids), func(k int) bool { return ids[k].Compare(id) >= 0 })
	out := make([]dewey.ID, 0, len(ids)+1)
	out = append(out, ids[:i]...)
	out = append(out, id)
	return append(out, ids[i:]...)
}
