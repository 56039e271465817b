package xseek

import (
	"math"

	"repro/internal/index"
	"repro/internal/xmltree"
)

// IDF is the inverse-document-frequency formula every ranking path
// shares: log((N+1)/(df+1)) for a corpus of N nodes. It is exported so
// the sharded executor (package shard), which aggregates document
// frequencies across shard indexes, produces bit-identical weights to
// a single-index engine's initDerived.
func IDF(totalNodes, df int) float64 {
	return math.Log(float64(totalNodes+1) / float64(df+1))
}

// TermWeight is the per-term TF-IDF contribution shared by every
// scoring path: logarithmically dampened term frequency times inverse
// document frequency, zero when the term is absent. Keeping the
// formula in one place is what makes sharded scores bit-identical to
// monolithic ones.
func TermWeight(tf int, idf float64) float64 {
	switch tf {
	case 0:
		return 0
	case 1:
		// log(1) == 0 exactly, so the weight is the bare IDF — worth
		// special-casing because single occurrences dominate real text.
		return idf
	}
	return (1 + math.Log(float64(tf))) * idf
}

// FromPartsRanked is FromParts with the ranking constants supplied by
// the caller instead of derived from the engine's own index: totalNodes
// is the whole corpus's node count and idf maps every corpus term to
// its global IDF (per the IDF formula; the map is retained, not
// copied).
//
// Package shard uses it to build one engine per shard whose index
// covers only that shard's subtrees while scoring results with
// whole-corpus weights — the combination that makes per-shard ranking
// bit-identical to monolithic ranking for results the shard owns.
func FromPartsRanked(root *xmltree.Node, idx *index.Index, schema *Schema, totalNodes int, idf map[string]float64) *Engine {
	return &Engine{root: root, idx: idx, schema: schema, totalNodes: totalNodes, idf: idf}
}

// DocFreq returns the number of corpus nodes containing term — the
// engine half of the CorpusStats interface.
func (e *Engine) DocFreq(term string) int { return e.idx.DocFreq(term) }
