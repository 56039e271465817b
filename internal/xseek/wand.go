package xseek

import (
	"container/heap"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/dewey"
	"repro/internal/index"
)

// This file is the ranked consumer every executor shares: the lazy
// SLCA → entity → bounded-heap pipeline with score-bound (block-max
// WAND) pruning. Once the top-k heap is full, each entity is first
// checked against an upper bound on its score — each term's block-max
// tf bound (index.BoundCursor) pushed through the shared TermWeight
// with the term's precomputed IDF. The bound is a suffix maximum, so
// it only falls as the stream advances while the heap's k-th score
// only rises; the first entity whose bound cannot displace the kept
// worst therefore proves the same for every later entity, and the
// consumer stops scoring (exact mode — the total stays exact) or
// stops draining entirely (approximate mode — the total is reported
// as StreamTotalUnknown). Exact mode is bit-identical to the eager
// ranking: pruned entities score strictly within the bound, and ties
// keep the earlier document position, which every pruned entity loses
// by construction. Without bounds or a bounded window the same loop
// simply never prunes.

// Accuracy selects how a score-bounded ranked page may trade the
// exact total for work.
type Accuracy int

const (
	// AccuracyExact (the default) keeps pages and totals bit-identical
	// to eager execution: the cutoff only skips scoring work.
	AccuracyExact Accuracy = iota
	// AccuracyApprox lets the consumer stop draining at the cutoff:
	// the page is still exact, but the total is StreamTotalUnknown.
	AccuracyApprox
)

// WANDStats reports what the score-bounded consumer did with one
// page, for the serving layer's metrics.
type WANDStats struct {
	// Bounded reports whether bound metadata was available; false
	// means the consumer ran unpruned (e.g. a legacy v4 snapshot
	// without block maxima, or an unbounded window).
	Bounded bool
	// Pruned counts entities whose exact scoring was skipped.
	Pruned int64
	// BlocksSkipped counts posting blocks past the cutoff point that
	// scoring never touched, summed over the query's terms.
	BlocksSkipped int64
	// Terminated reports an approximate-mode early stop: the stream
	// was abandoned and the total is unknown.
	Terminated bool
}

// Add folds another page's stats in (the shard fan-out aggregates its
// legs).
func (st *WANDStats) Add(o WANDStats) {
	st.Bounded = st.Bounded || o.Bounded
	st.Pruned += o.Pruned
	st.BlocksSkipped += o.BlocksSkipped
	st.Terminated = st.Terminated || o.Terminated
}

// TermBound is one query term's contribution to the score upper
// bound: its precomputed IDF and a monotone cursor over its block-max
// metadata. The cursor must bound the same tf the consumer's Scorer
// counts.
type TermBound struct {
	IDF float64
	Cur index.BoundCursor
}

// SharedThreshold is a monotone-max score threshold shared across
// concurrent consumers — the shard fan-out hands one to every leg so
// a leg can prune with the global k-th-best score, not just its own.
// Scores are non-negative, so their float64 bit patterns order like
// the values and a plain uint64 CAS keeps Raise lock-free.
type SharedThreshold struct {
	bits atomic.Uint64
}

// Raise lifts the threshold to at least v. Values at or below the
// current threshold (or zero) are no-ops.
func (s *SharedThreshold) Raise(v float64) {
	if v <= 0 {
		return
	}
	b := math.Float64bits(v)
	for {
		old := s.bits.Load()
		if old >= b || s.bits.CompareAndSwap(old, b) {
			return
		}
	}
}

// Load returns the current threshold (0 until the first Raise).
func (s *SharedThreshold) Load() float64 {
	return math.Float64frombits(s.bits.Load())
}

// boundBelow reports whether the score upper bound at id — and, by
// the suffix-max construction, at every later document position —
// cannot displace the kept top-k. tau is the consumer's own k-th
// score: a later entity scoring exactly tau still loses the tie (ties
// keep the earlier position), so <= is safe. Against the shared
// cross-leg threshold only strict < is safe — an equal-scored entity
// in another leg may sit later in document order than this one.
func boundBelow(bounds []TermBound, id dewey.ID, tau float64, shared *SharedThreshold) bool {
	if len(id) == 0 {
		// The root spans every depth-1 group, so the per-group bounds
		// do not cover it; score it exactly. (It is also always the
		// first emission, so in practice the heap is not full yet.)
		return false
	}
	ub := 0.0
	for i := range bounds {
		if tf := bounds[i].Cur.MaxTFFrom(id); tf > 0 {
			ub += TermWeight(tf, bounds[i].IDF)
		}
	}
	if ub <= tau {
		return true
	}
	return shared != nil && ub < shared.Load()
}

// ConsumeRankedWAND drains an entity stream through a bounded heap and
// returns the options' window of the exact relevance ranking. Only the
// window's survivors are labelled. The page is bit-identical — scores,
// order, length — to scoring the eager result list and ranking it with
// RankPage/RankResults; the total is exact except after an
// approximate-mode early stop, which reports StreamTotalUnknown. It is
// every executor's ranked consumer; each supplies its own tf source
// through the Scorer and its own bounds. A nil bounds slice (e.g. a
// legacy snapshot without block maxima) or an unbounded window never
// prunes, and Bounded stays false. shared may be nil; when set, the
// consumer raises it with its own k-th score and prunes against it
// strictly.
func ConsumeRankedWAND(es *EntityStream, opts SearchOptions, score Scorer, bounds []TermBound, shared *SharedThreshold) ([]*RankedResult, int, WANDStats, error) {
	lo := opts.Offset
	if lo < 0 {
		lo = 0
	}
	want := math.MaxInt // unbounded: keep (and exactly score) every entity
	if opts.Limit > 0 {
		if c := lo + opts.Limit; c > lo { // overflow-safe, mirroring Window
			want = c
		}
	}
	// Unbounded windows need every exact score; without bound metadata
	// there is nothing to prune with.
	prune := want != math.MaxInt && len(bounds) > 0
	st := WANDStats{Bounded: prune}
	var h streamHeap
	total := 0
	cut := false // the permanent cutoff: no later entity can displace
	for {
		hit, ok := es.Next()
		if !ok {
			break
		}
		ord := total
		total++
		if cut {
			st.Pruned++
			continue
		}
		if len(h) == want && prune && boundBelow(bounds, hit.Node.ID, h[0].score, shared) {
			// The bound is non-increasing and both thresholds are
			// non-decreasing, so the first failure is final: stop
			// scoring, and in approximate mode stop draining too.
			cut = true
			st.Pruned++
			for i := range bounds {
				st.BlocksSkipped += int64(bounds[i].Cur.BlocksLeft())
			}
			if opts.Accuracy == AccuracyApprox {
				st.Terminated = true
				break
			}
			continue
		}
		entry := streamHit{hit: hit, score: score(hit.Node.ID), ord: ord}
		if len(h) < want {
			h = append(h, entry)
			if len(h) == want {
				heap.Init(&h)
				if shared != nil {
					shared.Raise(h[0].score)
				}
			}
			continue
		}
		// Bounded: displace the worst kept entry when beaten. Ties keep
		// the earlier document position, so a later equal score never
		// displaces.
		if h.beats(entry, h[0]) {
			h[0] = entry
			heap.Fix(&h, 0)
			if shared != nil {
				shared.Raise(h[0].score)
			}
		}
	}
	if err := es.Err(); err != nil {
		return nil, 0, st, err
	}
	// Drain into rank order. An unbounded (or under-filled) heap was
	// never heapified; sort it by the same key.
	var ranked []streamHit
	if len(h) == want {
		ranked = make([]streamHit, len(h))
		for n := len(h) - 1; n >= 0; n-- {
			ranked[n] = heap.Pop(&h).(streamHit)
		}
	} else {
		ranked = h
		sort.Slice(ranked, func(i, j int) bool { return h.beats(ranked[i], ranked[j]) })
	}
	if lo > len(ranked) {
		lo = len(ranked)
	}
	out := make([]*RankedResult, 0, len(ranked)-lo)
	for _, s := range ranked[lo:] {
		out = append(out, &RankedResult{
			Result: &Result{Node: s.hit.Node, Match: s.hit.Match, Label: LabelFor(s.hit.Node)},
			Score:  s.score,
		})
	}
	if st.Terminated {
		total = StreamTotalUnknown
	}
	return out, total, st, nil
}

// TermBounds builds one score-bound cursor per scoring term (terms
// with zero IDF contribute no weight and are skipped, matching
// StreamScorer), or nil when any term's block maxima are unavailable
// — the signal to run the consumer unpruned.
func (e *Engine) TermBounds(terms []string) []TermBound {
	out := make([]TermBound, 0, len(terms))
	for _, t := range terms {
		idf := e.termIDF(t)
		if idf == 0 {
			continue
		}
		lb := e.idx.TermBounds(t)
		if lb == nil {
			return nil
		}
		out = append(out, TermBound{IDF: idf, Cur: lb.Cursor()})
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// RankWAND runs the score-bounded ranked pipeline on the compiled
// query. shared may be nil (monolithic execution); the shard fan-out
// passes one threshold to all legs.
func (q *Query) RankWAND(opts SearchOptions, shared *SharedThreshold) ([]*RankedResult, int, WANDStats, error) {
	it, err := q.SLCAIter()
	if err != nil {
		return nil, 0, WANDStats{}, err
	}
	es := NewEntityStream(it, q.eng.root, q.eng.schema)
	return ConsumeRankedWAND(es, opts, q.eng.StreamScorer(q.Terms), q.eng.TermBounds(q.Terms), shared)
}

// SearchRankedPageWAND compiles the query and returns the options'
// window of the relevance ranking through the score-bounded consumer:
// in exact mode the same page bytes and total as Search + RankPage,
// with pruning stats alongside. It counts toward StreamedDecisions —
// the counter reports pages that ran the lazy pipeline, however
// bounded.
func (e *Engine) SearchRankedPageWAND(query string, opts SearchOptions) ([]*RankedResult, int, WANDStats, error) {
	q, err := e.Compile(query)
	if err != nil {
		return nil, 0, WANDStats{}, err
	}
	e.plannerStreamed.Add(1)
	return q.RankWAND(opts, nil)
}
