package shard

import (
	"sync"

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
// over the shard engines it built. Nothing in serving runs it: it is
// the in-process reference the distributed coordinator is held to.
type Engine struct {
	*Fanout

	shards []*xseek.Engine
}

// Build constructs a K-shard engine over root: schema inference runs
// first (the partition depends on it), then the K shard indexes and
// the spine index build concurrently through one shared symbol table.
// Document frequencies are aggregated across the finished shards into
// the shared ranking constants.
func Build(root *xmltree.Node, k int) *Engine {
	schema := xseek.InferSchemaParallel(root, 0)
	part := Plan(root, schema, k)
	st := index.NewSymbolTable()

	indexes := make([]*index.Index, len(part.Groups))
	var wg sync.WaitGroup
	for g, r := range part.Groups {
		wg.Add(1)
		go func(g int, lo, hi int) {
			defer wg.Done()
			indexes[g] = index.BuildForestShared(root, part.Segments[lo:hi], st)
		}(g, r[0], r[1])
	}
	wg.Wait()

	e := &Engine{Fanout: newFanout(root, schema, part, index.BuildNodesShared(root, part.Spine, st))}
	e.shards = make([]*xseek.Engine, len(indexes))
	e.legs = make([]Leg, len(indexes))
	for g, idx := range indexes {
		e.shards[g] = xseek.FromPartsRanked(root, idx, schema, e.totalNodes, e.idf)
		e.legs[g] = &localLeg{root: root, schema: schema, spineSet: e.own.spineSet, eng: e.shards[g]}
		e.elements += idx.Stats().IndexedElements
	}
	e.elements += e.spine.Index().Stats().IndexedElements
	e.initRanking(e.aggregateDF())
	return e
}

// SpineIndex returns the index over the spine nodes (document root and
// wrapper elements above the topmost entities). Together with
// ShardIndexes it holds every posting of the corpus, in disjoint parts.
func (e *Engine) SpineIndex() *index.Index { return e.spine.Index() }

// ShardIndexes returns every shard's inverted index in group order.
func (e *Engine) ShardIndexes() []*index.Index {
	out := make([]*index.Index, len(e.shards))
	for g, sh := range e.shards {
		out[g] = sh.Index()
	}
	return out
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
		add(sh)
	}
	return df
}
