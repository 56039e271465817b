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

// state is one immutable snapshot of the live corpus. Every mutation
// installs a fresh state; readers load it once per operation and never
// see a torn view.
type state struct {
	epoch uint64

	// baseX is the immutable one-index base the pending writes are
	// layered over.
	baseX *xseek.Engine

	// Doc is the document side: the live tree over the base tree, the
	// top-level ordinals, the schema and the journal.
	Doc

	tombstones []dewey.ID // sorted, top-level IDs of removed entities
	deltaRoots []*xmltree.Node
	delta      *index.Index // over deltaRoots; nil when none

	// Exact whole-corpus statistics for the live logical corpus.
	df         freqs
	totalNodes int
	elements   int
}

// Wrap makes a monolithic engine updatable. The wrapped engine must not
// be mutated by anyone else afterwards.
func Wrap(x *xseek.Engine) *Engine {
	return wrap(baseState(x, NewDoc(x.Root(), x.Schema()), 0))
}

func wrap(s *state) *Engine {
	e := &Engine{}
	e.cur.Store(s)
	return e
}

// baseState builds the clean state over a one-index base, fresh or
// just compacted, and its clean document: no delta, no tombstones,
// statistics read off the base index.
func baseState(x *xseek.Engine, doc Doc, epoch uint64) *state {
	idx := x.Index()
	df := make(map[string]int)
	idx.EachTerm(func(t string, n int) { df[t] = n })
	return &state{
		epoch:      epoch,
		baseX:      x,
		Doc:        doc,
		df:         newFreqs(df),
		totalNodes: x.TotalNodes(),
		elements:   idx.Stats().IndexedElements,
	}
}

// view returns the current immutable state.
func (e *Engine) view() *state { return e.cur.Load() }

// Epoch returns the state's monotonically increasing version. Any
// mutation — add, remove, or compaction — bumps it; the serving layer
// tags cache entries with it.
func (e *Engine) Epoch() uint64 { return e.view().epoch }

// BaseXseek returns the current one-index base. Compaction replaces
// the base, so do not retain the result.
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

// SnapshotParts returns one consistent view of the persistence
// surface: the base tree, its one-index base, and the journal of
// pending writes layered over it.
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
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	s := e.view()
	doc, err := s.Doc.Add(n)
	if err != nil {
		return nil, err
	}

	ns := &state{
		epoch:      s.epoch + 1,
		baseX:      s.baseX,
		Doc:        doc,
		tombstones: s.tombstones,
		totalNodes: s.totalNodes + n.CountNodes(),
	}
	ns.deltaRoots = append(s.deltaRoots[:len(s.deltaRoots):len(s.deltaRoots)], n)

	// Index only the new entity and append its lists onto the existing
	// delta (the new ordinal follows every delta ordinal, so Merge's
	// document-order precondition holds): each add costs O(entity),
	// not a re-index of the whole pending delta.
	// The delta interns into the base's symbol table so base and delta
	// lists agree on symbol IDs — Merge's ID-direct fast path, and one
	// shared symbol section if this state gets snapshotted as v4.
	ent := index.BuildForestShared(ns.root, []*xmltree.Node{n}, s.baseX.Index().Symbols())
	if s.delta != nil {
		ns.delta = index.Merge(ns.root, s.delta, ent)
	} else {
		ns.delta = ent
	}
	ns.df = s.df.adjusted(termContrib(ent), +1)
	ns.elements = s.elements + ent.Stats().IndexedElements

	e.updates.Add(1)
	e.cur.Store(ns)
	return n.ID, nil
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
	doc, victim, err := s.Doc.Remove(id[0])
	if err != nil {
		return err
	}

	ns := &state{
		epoch:      s.epoch + 1,
		baseX:      s.baseX,
		Doc:        doc,
		deltaRoots: s.deltaRoots,
		delta:      s.delta,
		tombstones: insertSorted(s.tombstones, id),
		totalNodes: s.totalNodes - victim.CountNodes(),
	}
	vic := index.BuildForest(s.root, []*xmltree.Node{victim})
	ns.df = s.df.adjusted(termContrib(vic), -1)
	ns.elements = s.elements - vic.Stats().IndexedElements

	e.updates.Add(1)
	e.cur.Store(ns)
	return nil
}

// Compact folds the pending delta and tombstones back into a clean
// base under an epoch swap; in-flight readers keep their state and are
// never blocked. With only adds pending, the delta posting lists are
// appended onto the base index; with a removal pending, the renumbered
// live tree is rebuilt into one index: the amortized cost that keeps
// every earlier per-op write cheap. Either way the new base keeps the
// schema the document already holds. Compacting with nothing pending
// is a no-op.
func (e *Engine) Compact() error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	s := e.view()
	if len(s.journal) == 0 {
		return nil
	}

	doc := s.Doc.Compact()
	root := doc.Root()
	var x *xseek.Engine
	if root == s.root {
		merged := index.Merge(root, s.baseX.Index(), s.delta)
		idf := make(map[string]float64, s.df.terms)
		s.df.each(func(t string, n int) {
			idf[t] = xseek.IDF(s.totalNodes, n)
		})
		x = xseek.FromPartsRanked(root, merged, doc.Schema(), s.totalNodes, idf)
	} else {
		x = xseek.FromParts(root, index.BuildParallel(root, 0), doc.Schema())
	}

	e.compactions.Add(1)
	e.cur.Store(baseState(x, doc, s.epoch+1))
	return nil
}

// termContrib collects an entity index's per-term document counts.
func termContrib(idx *index.Index) map[string]int {
	out := make(map[string]int)
	idx.EachTerm(func(t string, df int) { out[t] = df })
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
