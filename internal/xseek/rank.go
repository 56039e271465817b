package xseek

import (
	"container/heap"
	"sort"

	"repro/internal/index"
)

// RankedResult is a search result with a relevance score. XSACT's demo
// lists results before the user ticks the ones to compare; ranking
// puts the most relevant first, as the paper's "result ranking"
// companion technique does.
type RankedResult struct {
	*Result
	// Score is a TF-IDF-style relevance score: higher is better.
	Score float64
}

// SearchRanked runs Search and orders the results by relevance:
// for each query term, the number of matching elements inside the
// result subtree (term frequency), dampened logarithmically and
// weighted by the term's inverse document frequency in the corpus.
// Ties keep document order, so ranking is deterministic.
func (e *Engine) SearchRanked(query string) ([]*RankedResult, error) {
	results, err := e.Search(query)
	if err != nil {
		return nil, err
	}
	return e.RankResults(results, query), nil
}

// RankResults scores and orders an already-computed result set for a
// query with TF-IDF over the view, the stable sort keeping document
// order on ties — the scoring half of SearchRanked, split out so
// callers that cache search results (the serving engine) can rank
// without repeating the SLCA search.
func (r Reader) RankResults(results []*Result, query string) []*RankedResult {
	out := r.scoreResults(results, query)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

// RankPage returns one window of the ranking RankResults would
// produce, without a full sort: the top Offset+Limit entries are
// selected with a bounded min-heap (O(n log k) for k ≪ n), then the
// window is cut from their sorted order. A window covering the whole
// set falls back to the full sort.
func (r Reader) RankPage(results []*Result, query string, opts SearchOptions) []*RankedResult {
	lo, hi := opts.Window(len(results))
	if hi >= len(results) {
		return r.RankResults(results, query)[lo:]
	}
	top := topK(r.scoreResults(results, query), hi)
	return top[lo:]
}

// scoreResults computes each result's TF-IDF score in input order.
// Each term's IDF and posting list are resolved once per call; weights
// still accumulate in (result, query-term) order, so every float
// operation matches a per-pair lookup exactly.
func (r Reader) scoreResults(results []*Result, query string) []*RankedResult {
	out := make([]*RankedResult, len(results))
	if len(results) == 0 {
		return out
	}
	// One backing array for the entries: a ranking is kept or dropped
	// as a whole, so n small objects would only cost the collector.
	slab := make([]RankedResult, len(results))
	terms := index.TokenizeQuery(query)
	idfs := make([]float64, len(terms))
	lists := make([]index.PostingList, len(terms))
	for j, t := range terms {
		if idfs[j] = r.postings.IDF(t); idfs[j] != 0 {
			lists[j] = r.postings.List(t)
		}
	}
	for i, res := range results {
		score := 0.0
		for j, idf := range idfs {
			if idf == 0 {
				continue
			}
			tf := index.CountUnder(lists[j], res.Node.ID)
			if tf == 0 {
				continue
			}
			score += TermWeight(tf, idf)
		}
		slab[i] = RankedResult{Result: res, Score: score}
		out[i] = &slab[i]
	}
	return out
}

// rankHeap is a min-heap of the k best entries seen so far: the worst
// of the kept entries sits at the root, ready to be displaced. Order
// matches the full stable sort exactly — higher score first, input
// index (document order for Search output) breaking ties — so a page
// cut from the heap's result equals the same page of RankResults.
type rankHeap struct {
	entries []*RankedResult
	idx     []int // input index of each entry, the tie-breaker
}

// beats reports whether entry a ranks strictly before entry b.
func (h *rankHeap) beats(a, b int) bool {
	if h.entries[a].Score != h.entries[b].Score {
		return h.entries[a].Score > h.entries[b].Score
	}
	return h.idx[a] < h.idx[b]
}

func (h *rankHeap) Len() int           { return len(h.entries) }
func (h *rankHeap) Less(i, j int) bool { return h.beats(j, i) } // min-heap: worst on top
func (h *rankHeap) Swap(i, j int) {
	h.entries[i], h.entries[j] = h.entries[j], h.entries[i]
	h.idx[i], h.idx[j] = h.idx[j], h.idx[i]
}
func (h *rankHeap) Push(x any) { panic("unused: rankHeap is fixed-size") }
func (h *rankHeap) Pop() any {
	n := len(h.entries) - 1
	e := h.entries[n]
	h.entries = h.entries[:n]
	h.idx = h.idx[:n]
	return e
}

// topK returns the k best entries of scored in rank order. scored is
// indexed in input order (the tie-break key).
func topK(scored []*RankedResult, k int) []*RankedResult {
	if k >= len(scored) {
		k = len(scored)
	}
	h := &rankHeap{entries: make([]*RankedResult, 0, k), idx: make([]int, 0, k)}
	for i, r := range scored {
		if len(h.entries) < k {
			h.entries = append(h.entries, r)
			h.idx = append(h.idx, i)
			if len(h.entries) == k {
				heap.Init(h)
			}
			continue
		}
		// Replace the root (worst kept) when r outranks it. Later
		// entries never beat equal-scored kept ones: ties go to the
		// lower input index.
		h.entries = append(h.entries, r)
		h.idx = append(h.idx, i)
		if h.beats(k, 0) {
			h.Swap(0, k)
		}
		h.entries, h.idx = h.entries[:k], h.idx[:k]
		heap.Fix(h, 0)
	}
	// Drain worst-first, filling the output back to front.
	out := make([]*RankedResult, len(h.entries))
	for n := len(h.entries) - 1; n >= 0; n-- {
		out[n] = heap.Pop(h).(*RankedResult)
	}
	return out
}
