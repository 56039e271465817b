package slca

import (
	"sort"
	"sync/atomic"

	"repro/internal/dewey"
	"repro/internal/index"
)

// Algorithm names one SLCA evaluation strategy.
type Algorithm string

const (
	// AlgAuto lets the cost planner choose between the eager variants.
	AlgAuto Algorithm = "auto"
	// AlgIndexedLookup is IndexedLookupEager: walk the smallest list,
	// binary-search the others. Wins when the driving list is much
	// shorter than the rest (|S1|·k·log|S| ≪ Σ|Si|).
	AlgIndexedLookup Algorithm = "indexed-lookup-eager"
	// AlgScanEager is ScanEager: walk the smallest list, advance merge
	// pointers through the others. Wins when list sizes are uniform —
	// one linear pass beats |S1|·log|S| random probes.
	AlgScanEager Algorithm = "scan-eager"
	// AlgNaive is the quadratic correctness oracle.
	AlgNaive Algorithm = "naive"
)

// DefaultSkewThreshold is the Max/Min list-length ratio above which the
// planner prefers IndexedLookupEager over ScanEager. Calibrated with
// BenchmarkPlanner: at skew 1 the merge is ~30% faster than binary
// probing and stays ahead through skew 32, the two cross at skew ≈ 48,
// and by skew 256 indexed lookup wins ~4.5x.
const DefaultSkewThreshold = 48.0

// Plan picks the cheaper eager algorithm from posting-list shape
// statistics: indexed lookup when a rare term makes the driving list
// much shorter than the longest list, scan otherwise. It is a pure
// function so callers can record or override the decision.
func Plan(stats index.PlanStats) Algorithm {
	if stats.Skew >= DefaultSkewThreshold {
		return AlgIndexedLookup
	}
	return AlgScanEager
}

// KnownAlgorithm reports whether alg names an implemented strategy,
// counting AlgAuto and the empty string (both defer to the planner).
// Callers accepting algorithm overrides should validate with it so a
// typo fails loudly instead of computing an empty result set.
func KnownAlgorithm(alg Algorithm) bool {
	switch alg {
	case AlgAuto, "", AlgIndexedLookup, AlgScanEager, AlgNaive:
		return true
	}
	return false
}

// Planner-decision counters for the package-level Compute entry point.
// These are process-wide totals: every Compute call in the process —
// across any number of engines, corpora, and tests — lands in the same
// two counters, so they cannot attribute decisions to a corpus and
// would double-count a query that multiple engines route through
// Compute. The engine-level counters (xseek.Engine.PlannerDecisions,
// update.Engine.PlannerDecisions, shard.Engine.PlannerDecisions) are
// the authoritative per-corpus tallies — the engines call Plan
// directly and count on their own atomics, never through Compute — and
// they are what the serving layer's metrics surface.
var plannedIndexed, plannedScan atomic.Int64

// plannerDecisions reports how many package-level Compute calls the
// planner routed to each eager algorithm since process start. It is a
// process-wide diagnostic total that cannot be attributed to a corpus
// (see the counter comment above), so it stays unexported, read only
// by this package's tests: the engine-level counters are the sole
// exported surface and what the serving layer's metrics report.
func plannerDecisions() (indexedLookup, scanEager int64) {
	return plannedIndexed.Load(), plannedScan.Load()
}

// Compute returns the SLCAs of the given posting lists, picking the
// algorithm with the cost planner. It is the entry point callers
// without an opinion should use.
func Compute(lists []index.PostingList) []dewey.ID {
	alg := Plan(index.StatsOf(lists))
	if alg == AlgIndexedLookup {
		plannedIndexed.Add(1)
	} else {
		plannedScan.Add(1)
	}
	return ComputeWith(alg, lists)
}

// ComputeWith evaluates the lists with a forced algorithm choice —
// benchmarks and the planner itself route through it. AlgAuto (and the
// empty string) defer to the planner; unknown names return nil.
func ComputeWith(alg Algorithm, lists []index.PostingList) []dewey.ID {
	switch alg {
	case AlgIndexedLookup:
		return IndexedLookupEager(lists)
	case AlgScanEager:
		return ScanEager(lists)
	case AlgNaive:
		return Naive(lists)
	case AlgAuto, "":
		return ComputeWith(Plan(index.StatsOf(lists)), lists)
	default:
		return nil
	}
}

// Naive computes SLCAs by materializing, for every node in the first
// list, the LCA closure against all other lists, then removing
// non-smallest results. It is O(n²) in the worst case and exists as a
// correctness oracle for tests.
func Naive(lists []index.PostingList) []dewey.ID {
	if len(lists) == 0 {
		return nil
	}
	for _, l := range lists {
		if len(l) == 0 {
			return nil
		}
	}
	if len(lists) == 1 {
		// SLCA of a single keyword list: the nodes themselves, minus
		// ancestors of other matches.
		return removeAncestors(dedupe(cloneIDs(lists[0])))
	}
	// For every element of the first list, compute the smallest LCA it
	// can form with one element from each other list.
	var candidates []dewey.ID
	for _, a := range lists[0] {
		cur := a.Clone()
		for _, other := range lists[1:] {
			best := bestLCAWith(cur, other)
			cur = best
		}
		candidates = append(candidates, cur)
	}
	return removeAncestors(dedupe(candidates))
}

// bestLCAWith returns the deepest LCA formable between id and any
// element of list.
func bestLCAWith(id dewey.ID, list index.PostingList) dewey.ID {
	best := dewey.Root()
	for _, b := range list {
		l := id.LCA(b)
		if l.Level() > best.Level() {
			best = l
		}
	}
	return best
}

// IndexedLookupEager implements the Indexed Lookup Eager SLCA
// algorithm. It iterates over the smallest posting list; for each node
// v it finds, in every other list, the closest match to v's left and
// right (binary search in document order) and keeps the deeper of the
// two LCAs. Candidate SLCAs are emitted eagerly and dominated
// (ancestor) candidates removed on the fly.
func IndexedLookupEager(lists []index.PostingList) []dewey.ID {
	if len(lists) == 0 {
		return nil
	}
	for _, l := range lists {
		if len(l) == 0 {
			return nil
		}
	}
	if len(lists) == 1 {
		return removeAncestors(dedupe(cloneIDs(lists[0])))
	}
	// Walk the smallest list for efficiency.
	smallest := 0
	for i, l := range lists {
		if len(l) < len(lists[smallest]) {
			smallest = i
		}
	}
	others := make([]index.PostingList, 0, len(lists)-1)
	for i, l := range lists {
		if i != smallest {
			others = append(others, l)
		}
	}

	var out []dewey.ID
	push := func(cand dewey.ID) {
		// Maintain out as a document-ordered list of incomparable
		// nodes. Candidates arrive roughly in document order of the
		// driving list, but their LCAs may repeat or nest, so compare
		// against the current tail.
		for len(out) > 0 {
			last := out[len(out)-1]
			if last.Equal(cand) {
				return // duplicate
			}
			if last.IsAncestorOf(cand) {
				// cand is smaller (deeper) — it replaces the ancestor.
				out = out[:len(out)-1]
				continue
			}
			if cand.IsAncestorOf(last) {
				return // existing result is smaller
			}
			break
		}
		out = append(out, cand)
	}

	for _, v := range lists[smallest] {
		cand := v.Clone()
		dead := false
		for _, other := range others {
			l := closestLCA(cand, other)
			if l == nil {
				dead = true
				break
			}
			cand = l
		}
		if !dead {
			push(cand)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return removeAncestors(out)
}

// closestLCA returns the deepest LCA of id with either the closest
// left or closest right neighbour in list (document order), or nil if
// the list is empty.
func closestLCA(id dewey.ID, list index.PostingList) dewey.ID {
	if len(list) == 0 {
		return nil
	}
	// First position >= id in document order.
	pos := sort.Search(len(list), func(i int) bool { return list[i].Compare(id) >= 0 })
	best := dewey.Root()
	if pos < len(list) {
		if l := id.LCA(list[pos]); l.Level() >= best.Level() {
			best = l
		}
	}
	if pos > 0 {
		if l := id.LCA(list[pos-1]); l.Level() > best.Level() {
			best = l
		}
	}
	return best
}

// removeAncestors removes every ID that is a proper ancestor of
// another ID in the list, leaving only "smallest" (deepest) nodes.
// Input must be sorted in document order and duplicate-free. In
// document order a node's descendants immediately follow it, so a node
// has a descendant in the list iff the next element is one — a single
// pass over adjacent pairs suffices.
func removeAncestors(sorted []dewey.ID) []dewey.ID {
	var out []dewey.ID
	for i, id := range sorted {
		if i+1 < len(sorted) && id.IsAncestorOf(sorted[i+1]) {
			continue
		}
		out = append(out, id)
	}
	return out
}

func dedupe(ids []dewey.ID) []dewey.ID {
	sort.Slice(ids, func(i, j int) bool { return ids[i].Compare(ids[j]) < 0 })
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || !ids[i-1].Equal(id) {
			out = append(out, id)
		}
	}
	return out
}

func cloneIDs(ids index.PostingList) []dewey.ID {
	out := make([]dewey.ID, len(ids))
	for i, id := range ids {
		out[i] = id.Clone()
	}
	return out
}
