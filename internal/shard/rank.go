package shard

import (
	"container/heap"
	"sort"

	"repro/internal/index"
	"repro/internal/xseek"
)

// RankResults scores and orders an already-merged result set exactly
// as a monolithic engine does: every term frequency is counted in the
// result's owning leg (or summed across legs for spine-rooted
// results), weighted by the shared whole-corpus IDF, and the stable
// sort keeps document order on ties. Scores are bit-identical to the
// monolithic ranking.
//
// With in-process legs this never fails; over a transport it can, and
// this executor-shaped signature has no error channel. A failed
// fan-out returns nil — observably unavailable, never silently wrong.
// Error-aware callers use RankResultsErr.
func (f *Fanout) RankResults(results []*xseek.Result, query string) []*xseek.RankedResult {
	out, err := f.RankResultsErr(results, query)
	if err != nil {
		return nil
	}
	return out
}

// RankResultsErr is RankResults with the transport error surfaced.
func (f *Fanout) RankResultsErr(results []*xseek.Result, query string) ([]*xseek.RankedResult, error) {
	out, err := f.scoreResults(results, query)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out, nil
}

// scoreResults computes TF-IDF scores in input order with the shared
// whole-corpus constants — the sharded twin of xseek's scoring stage.
// Frequencies are fetched in one batched probe per leg; accumulation
// stays in (result, term-occurrence) order so every float operation
// matches the monolithic scorer's exactly.
func (f *Fanout) scoreResults(results []*xseek.Result, query string) ([]*xseek.RankedResult, error) {
	// Only terms with a corpus IDF are probed; resolve them once.
	type weighted struct {
		term string
		idf  float64
	}
	var terms []weighted
	for _, t := range index.TokenizeQuery(query) {
		if idf, ok := f.idf[t]; ok {
			terms = append(terms, weighted{t, idf})
		}
	}
	type slot struct {
		ri  int     // result index
		idf float64 // the occurrence's term weight input
	}
	probes := make([]TFProbe, 0, len(results)*len(terms))
	slots := make([]slot, 0, len(results)*len(terms))
	for ri, r := range results {
		for _, t := range terms {
			probes = append(probes, TFProbe{Term: t.term, ID: r.Node.ID})
			slots = append(slots, slot{ri: ri, idf: t.idf})
		}
	}
	counts, err := f.tfCounts(probes)
	if err != nil {
		return nil, err
	}
	out := make([]*xseek.RankedResult, len(results))
	slab := make([]xseek.RankedResult, len(results)) // one allocation for every entry
	for ri, r := range results {
		slab[ri] = xseek.RankedResult{Result: r}
		out[ri] = &slab[ri]
	}
	for si, s := range slots {
		if counts[si] == 0 {
			continue
		}
		out[s.ri].Score += xseek.TermWeight(counts[si], s.idf)
	}
	return out, nil
}

// mergeHeap is a max-heap over the heads of per-leg ranked streams,
// ordered by (score desc, document order asc) — the exact key of the
// monolithic stable ranking, since each stream's entries carry
// strictly increasing document positions.
type mergeHeap []*rankedStream

type rankedStream struct {
	entries []*xseek.RankedResult
	pos     int
}

func (h mergeHeap) head(i int) *xseek.RankedResult { return h[i].entries[h[i].pos] }

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	a, b := h.head(i), h.head(j)
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Node.ID.Compare(b.Node.ID) < 0
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(*rankedStream)) }
func (h *mergeHeap) Pop() any     { old := *h; n := len(old) - 1; s := old[n]; *h = old[:n]; return s }

// mergeRankedStreams streams the first max entries of the merged
// ranking out of the per-leg streams. The output is sized by the
// entries the streams hold, not by max: a caller's window can be far
// larger than the result set.
func mergeRankedStreams(streams [][]*xseek.RankedResult, max int) []*xseek.RankedResult {
	h := make(mergeHeap, 0, len(streams))
	held := 0
	for _, s := range streams {
		if len(s) > 0 {
			h = append(h, &rankedStream{entries: s})
			held += len(s)
		}
	}
	heap.Init(&h)
	out := make([]*xseek.RankedResult, 0, min(max, held))
	for len(out) < max && h.Len() > 0 {
		s := h[0]
		out = append(out, s.entries[s.pos])
		s.pos++
		if s.pos == len(s.entries) {
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
	}
	return out
}

// CleanQuery spell-corrects each keyword against the union vocabulary
// of every leg, with the same candidate ranking (distance, then
// aggregate frequency, then term) a monolithic index uses.
func (f *Fanout) CleanQuery(query string) []string { return xseek.CleanQuery(f.df, query) }
