package slca

import (
	"repro/internal/dewey"
	"repro/internal/index"
)

// This file holds the one SLCA implementation every read path serves:
// Xu & Papakonstantinou's smallest-list-driven candidate computation,
// pulled one result at a time through an Iterator instead of
// materialized, sorted, and pruned in bulk. A consumer that stops
// after k results pays for the driving-list prefix that produced them,
// not for the whole result set — latency scales with the limit.

// Iterator yields SLCAs one at a time, in document order, each exactly
// once. Returned IDs are read-only views: safe to retain (they alias
// immutable index storage with pinned capacity), never to mutate in
// place.
type Iterator interface {
	Next() (dewey.ID, bool)
}

// DefaultStreamRatio is the planner's third-choice threshold: a query
// asking for the top `need` results runs streamed when the driving
// (smallest) posting list holds at least need*DefaultStreamRatio
// postings — i.e. when early termination can plausibly skip most of
// the full drain. Calibrated with BenchmarkStreamTopK: at ratios below
// ~4 the early-terminating and full-list costs converge, while small
// windows over rare+common workloads above the threshold win 4-8x.
const DefaultStreamRatio = 4

// PlanStreamed reports whether a query for the first `need` results
// (offset+limit) should run the early-terminating ranked pipeline
// instead of ranking the full result list. need <= 0 means "all
// results", which streaming cannot shortcut.
func PlanStreamed(stats index.PlanStats, need int) bool {
	return need > 0 && stats.Min >= need*DefaultStreamRatio
}

// streamer drives the shortest posting list through the other lists'
// cursors and emits surviving SLCAs. One tentative slot suffices for
// exactness: if v_i < v_j are driver nodes, candidate(v_j) either
// follows candidate(v_i) in document order or is a proper ancestor of
// it (both candidates are ancestors-or-self of their driver nodes, and
// subtrees nest or are disjoint). So a new candidate can only (a)
// duplicate the tentative, (b) replace a tentative it descends from,
// (c) die because it is an ancestor of the tentative, or (d) finalize
// the tentative — an already-emitted result is never invalidated
// later, which is what makes early termination safe.
type streamer struct {
	driver index.Iter
	others []index.Iter
	// tent is only meaningful while hasTent is set: the document root's
	// Dewey ID is the nil slice, so nil cannot double as "no tentative".
	tent    dewey.ID
	hasTent bool
	done    bool
}

// Next implements Iterator.
func (s *streamer) Next() (dewey.ID, bool) {
	if s.done {
		return nil, false
	}
	for {
		v, ok := s.driver.Next()
		if !ok {
			break
		}
		cand := s.candidate(v)
		switch {
		case !s.hasTent:
			s.tent, s.hasTent = cand, true
		case s.tent.Equal(cand):
			// Duplicate of the tentative: merged.
		case s.tent.IsAncestorOf(cand):
			// Deeper (smaller) LCA under the tentative replaces it.
			s.tent = cand
		case cand.IsAncestorOf(s.tent):
			// The candidate contains an established smaller result.
		default:
			out := s.tent
			s.tent = cand
			return out, true
		}
	}
	s.done = true
	if s.hasTent {
		s.hasTent = false
		return s.tent, true
	}
	return nil, false
}

// candidate folds driver node v against every other list: the deepest
// LCA of the running candidate with v's closest left or right
// neighbour in each list.
func (s *streamer) candidate(v dewey.ID) dewey.ID {
	if len(s.others) == 0 {
		return v[:len(v):len(v)]
	}
	cand := v
	for _, it := range s.others {
		best := dewey.Root()
		if r, ok := it.Seek(v); ok {
			if l := cand.PrefixLCA(r); l.Level() >= best.Level() {
				best = l
			}
		}
		if p, ok := it.PredOf(v); ok {
			if l := cand.PrefixLCA(p); l.Level() > best.Level() {
				best = l
			}
		}
		cand = best
	}
	return cand
}

// StreamIters streams the SLCAs of the posting sequences behind the
// given cursors, with driver the cursor over the smallest (or
// exactly-counted, on the live path) sequence. All sequences must be
// non-empty; callers that cannot guarantee that should use Stream or
// check document frequencies first.
func StreamIters(driver index.Iter, others []index.Iter) Iterator {
	return &streamer{driver: driver, others: others}
}

// ScanStream streams the SLCAs with the non-driver lists advancing on
// linear merge pointers (Scan Eager's discipline).
func ScanStream(lists []index.PostingList) Iterator {
	return streamLists(lists, index.ListIterLinear)
}

// IndexedLookupStream streams the SLCAs with the non-driver lists
// probed by galloping searches (Indexed Lookup Eager's discipline), so
// a rare driving term touches only O(|S1|·k·log|S|) postings no matter
// how long the common lists are.
func IndexedLookupStream(lists []index.PostingList) Iterator {
	return streamLists(lists, index.ListIter)
}

// Stream returns a streaming SLCA iterator over the lists, picking the
// seek discipline with Plan (scan below the skew threshold, gallop
// above).
func Stream(lists []index.PostingList) Iterator {
	if Plan(index.StatsOf(lists)) == AlgIndexedLookup {
		return IndexedLookupStream(lists)
	}
	return ScanStream(lists)
}

// streamLists builds the driver/others split for materialized lists.
func streamLists(lists []index.PostingList, mkIter func(index.PostingList) index.Iter) Iterator {
	if len(lists) == 0 {
		return IterOver(nil)
	}
	for _, l := range lists {
		if len(l) == 0 {
			return IterOver(nil)
		}
	}
	smallest := 0
	for i, l := range lists {
		if len(l) < len(lists[smallest]) {
			smallest = i
		}
	}
	others := make([]index.Iter, 0, len(lists)-1)
	for i, l := range lists {
		if i != smallest {
			others = append(others, mkIter(l))
		}
	}
	return StreamIters(index.ListIter(lists[smallest]), others)
}

// sliceIterator adapts a materialized ID slice to the Iterator shape.
type sliceIterator struct {
	ids []dewey.ID
	pos int
}

// IterOver streams an already-computed, document-ordered SLCA slice —
// the bridge for ID sets computed elsewhere (the sharded spine fix-up).
func IterOver(ids []dewey.ID) Iterator { return &sliceIterator{ids: ids} }

func (s *sliceIterator) Next() (dewey.ID, bool) {
	if s.pos >= len(s.ids) {
		return nil, false
	}
	v := s.ids[s.pos]
	s.pos++
	return v, true
}

// filterTee drops stream elements the keep predicate rejects and
// reports survivors to tee before yielding them.
type filterTee struct {
	it   Iterator
	keep func(dewey.ID) bool
	tee  func(dewey.ID)
}

// FilterTee wraps a stream with an element filter and an observation
// hook; either function may be nil. The sharded fan-out uses it to
// drop spine-owned SLCAs from a shard's stream while collecting the
// kept ones for the cross-shard fix-up pass.
func FilterTee(it Iterator, keep func(dewey.ID) bool, tee func(dewey.ID)) Iterator {
	return &filterTee{it: it, keep: keep, tee: tee}
}

func (f *filterTee) Next() (dewey.ID, bool) {
	for {
		v, ok := f.it.Next()
		if !ok {
			return nil, false
		}
		if f.keep != nil && !f.keep(v) {
			continue
		}
		if f.tee != nil {
			f.tee(v)
		}
		return v, true
	}
}

// Collect drains it into a document-ordered slice.
func Collect(it Iterator) []dewey.ID {
	var out []dewey.ID
	for {
		v, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}
