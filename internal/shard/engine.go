package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/index"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// Engine is a sharded search executor over one corpus. It presents the
// same query surface as a single xseek.Engine — Search, CleanQuery,
// RankResults, SearchRankedPageWAND, CorpusStats — and guarantees
// identical output; only the execution strategy (per-shard fan-out and
// merge) differs. All methods are safe for concurrent use.
//
// The query pipeline itself lives in the embedded Fanout, which runs
// over the abstract Leg interface; Engine supplies in-process legs
// (lazily materialized shard engines) plus everything tied to local
// index ownership: building, reuse, symbol tables, snapshot hooks.
type Engine struct {
	*Fanout

	// syms is the symbol table shared by the spine index and every
	// shard built by this engine, so a v4 snapshot writes one symbol
	// section for all K shards. Indexes adopted from a prior engine
	// (BuildReusing) may carry their own tables; all cross-index
	// composition is string-keyed, so that is correct, just less
	// compact until the next full build.
	syms *index.SymbolTable

	shards []*lazyShard

	rebuilds atomic.Int64
}

// lazyShard materializes one shard's pipeline engine on first use. A
// mutex (not sync.Once) serializes builds so a panicking build can be
// retried instead of poisoning the slot.
type lazyShard struct {
	mu    sync.Mutex
	build func() *xseek.Engine
	eng   atomic.Pointer[xseek.Engine]
}

func (l *lazyShard) get() *xseek.Engine {
	if e := l.eng.Load(); e != nil {
		return e
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if e := l.eng.Load(); e != nil {
		return e
	}
	e := l.build()
	l.eng.Store(e)
	// Drop the loader: for snapshot-backed shards it captures the raw
	// encoded section bytes, which would otherwise stay live for the
	// engine's lifetime next to the decoded index.
	l.build = nil
	return e
}

// peek returns the shard engine if it has been materialized, without
// forcing a load.
func (l *lazyShard) peek() *xseek.Engine { return l.eng.Load() }

// Build constructs a K-shard engine over root: schema inference runs
// first (the partition depends on it), then the K shard indexes and
// the spine index build concurrently. Document frequencies are
// aggregated across the finished shards into the shared ranking
// constants.
func Build(root *xmltree.Node, k int) *Engine {
	e, _ := buildReusing(root, k, nil)
	return e
}

// BuildReusing is Build with an index-reuse pass over a prior engine of
// the same corpus lineage: any group of the fresh partition whose
// segment sequence is identical (same subtree objects, same Dewey IDs)
// to one of prior's groups adopts prior's already-built index instead
// of re-indexing. It returns the engine plus how many groups were
// reused. This is the single-shard compaction primitive of the live
// write path: entities appended at the end of the document land in the
// trailing groups of the re-balanced partition, so every group whose
// boundary survives the re-balance (its size overshoot absorbs the
// growth) carries its index over and only the perturbed shards are
// rebuilt. The output is identical to Build's for the same root and k.
func BuildReusing(root *xmltree.Node, k int, prior *Engine) (*Engine, int) {
	return buildReusing(root, k, prior)
}

func buildReusing(root *xmltree.Node, k int, prior *Engine) (*Engine, int) {
	schema := xseek.InferSchemaParallel(root, 0)
	part := Plan(root, schema, k)
	st := index.NewSymbolTable()

	reused := 0
	indexes := make([]*index.Index, len(part.Groups))
	var wg sync.WaitGroup
	for g, r := range part.Groups {
		if prior != nil {
			if idx := prior.reusableIndex(part.Segments[r[0]:r[1]]); idx != nil {
				indexes[g] = idx
				reused++
				continue
			}
		}
		wg.Add(1)
		go func(g int, lo, hi int) {
			defer wg.Done()
			indexes[g] = index.BuildForestShared(root, part.Segments[lo:hi], st)
		}(g, r[0], r[1])
	}
	wg.Wait()

	e := newEngine(root, schema, part, st)
	e.shards = make([]*lazyShard, len(indexes))
	for g, idx := range indexes {
		sh := &lazyShard{}
		sh.eng.Store(xseek.FromPartsRanked(root, idx, schema, e.totalNodes, e.idf))
		e.shards[g] = sh
		e.elements += idx.Stats().IndexedElements
	}
	e.elements += e.spine.Index().Stats().IndexedElements
	e.initRanking(e.aggregateDF())
	e.initLegs()
	return e, reused
}

// reusableIndex returns the prior engine's index over exactly the given
// segment sequence, or nil when no group matches. Matching is by node
// identity, which implies identical Dewey IDs and content — the only
// condition under which a prior posting set is still byte-valid.
func (e *Engine) reusableIndex(segs []*xmltree.Node) *index.Index {
	for g, r := range e.part.Groups {
		lo, hi := r[0], r[1]
		if hi-lo != len(segs) {
			continue
		}
		match := true
		for i := range segs {
			if e.part.Segments[lo+i] != segs[i] {
				match = false
				break
			}
		}
		if match {
			return e.shards[g].get().Index()
		}
	}
	return nil
}

// SpineIndex returns the index over the spine nodes (document root and
// wrapper elements above the topmost entities). Together with
// ShardIndexes it exposes every posting the engine holds — the live
// write path reads them to compose its base ⊕ delta − tombstones view.
func (e *Engine) SpineIndex() *index.Index { return e.spine.Index() }

// FromSourcesShared assembles a sharded engine whose shard indexes
// load lazily — typically from a v4 snapshot (package persist). k, df,
// and elements (the aggregate distinct-indexed-element count, see
// IndexStats) must come from the snapshot; the partition is recomputed
// deterministically from root + schema + k, so it matches the one the
// indexes were built under. load[g] supplies group g's index; a nil
// or failing loader falls back to rebuilding that one shard from its
// own segment subtrees, counted in Rebuilds. st is the symbol table
// every shard interns through (fresh when nil): a snapshot's shard
// sections all share its one table, and rebuild fallbacks join it too.
func FromSourcesShared(root *xmltree.Node, schema *xseek.Schema, k int, df map[string]int, elements int, load []func() (*index.Index, error), st *index.SymbolTable) (*Engine, error) {
	part := Plan(root, schema, k)
	if len(load) != len(part.Groups) {
		return nil, fmt.Errorf("shard: %d shard sources for a %d-group partition", len(load), len(part.Groups))
	}
	if st == nil {
		st = index.NewSymbolTable()
	}
	e := newEngine(root, schema, part, st)
	e.initRanking(df)
	e.elements = elements
	e.shards = make([]*lazyShard, len(part.Groups))
	for g := range part.Groups {
		g := g
		sh := &lazyShard{}
		sh.build = func() *xseek.Engine {
			if src := load[g]; src != nil {
				if idx, err := src(); err == nil {
					return xseek.FromPartsRanked(root, idx, schema, e.totalNodes, e.idf)
				}
			}
			e.rebuilds.Add(1)
			lo, hi := part.Groups[g][0], part.Groups[g][1]
			idx := index.BuildForestShared(root, part.Segments[lo:hi], st)
			return xseek.FromPartsRanked(root, idx, schema, e.totalNodes, e.idf)
		}
		e.shards[g] = sh
	}
	e.initLegs()
	return e, nil
}

// newEngine wraps a fresh Fanout (the transport-agnostic pipeline
// state) with the engine's local index machinery. The spine index is
// built here through the shared symbol table.
func newEngine(root *xmltree.Node, schema *xseek.Schema, part Partition, st *index.SymbolTable) *Engine {
	if st == nil {
		st = index.NewSymbolTable()
	}
	return &Engine{
		Fanout: newFanout(root, schema, part, index.BuildNodesShared(root, part.Spine, st)),
		syms:   st,
	}
}

// initLegs installs the in-process legs over the engine's shard slots.
// Must run after e.shards is populated; the legs share the fan-out's
// spine set so their kept-filters agree with the merge layer.
func (e *Engine) initLegs() {
	e.legs = make([]Leg, len(e.shards))
	for g, sh := range e.shards {
		e.legs[g] = &localLeg{root: e.root, schema: e.schema, spineSet: e.own.spineSet, sh: sh}
	}
}

// Symbols returns the symbol table shared by the spine and the shards
// this engine built (see the field comment for the reuse caveat).
func (e *Engine) Symbols() *index.SymbolTable { return e.syms }

// MemStats aggregates index residency over the spine and the
// materialized shards, without forcing a lazy shard to decode.
func (e *Engine) MemStats() index.MemStats {
	ms := e.spine.Index().MemStats()
	for _, sh := range e.shards {
		if x := sh.peek(); x != nil {
			m := x.Index().MemStats()
			ms.DataBytes += m.DataBytes
			ms.ResidentLists += m.ResidentLists
			ms.ResidentBlocks += m.ResidentBlocks
		}
	}
	return ms
}

// aggregateDF sums document frequencies over every shard index plus
// the spine index. Shard node sets are disjoint, so the sums equal the
// monolithic index's frequencies exactly.
func (e *Engine) aggregateDF() map[string]int {
	df := make(map[string]int)
	add := func(x *xseek.Engine) {
		x.Index().EachTerm(func(t string, n int) { df[t] += n })
	}
	add(e.spine)
	for _, sh := range e.shards {
		add(sh.get())
	}
	return df
}

// ShardCount returns K, the number of index shards.
func (e *Engine) ShardCount() int { return len(e.shards) }

// Rebuilds reports how many shards were rebuilt from the tree because
// their snapshot source was missing or corrupt.
func (e *Engine) Rebuilds() int64 { return e.rebuilds.Load() }

// ShardIndexes materializes and returns every shard's inverted index
// in group order — the persistence layer's save hook.
func (e *Engine) ShardIndexes() []*index.Index {
	out := make([]*index.Index, len(e.shards))
	for g, sh := range e.shards {
		out[g] = sh.get().Index()
	}
	return out
}
