package reference

import (
	"sort"

	"repro/internal/dewey"
	"repro/internal/index"
)

// Naive computes SLCAs by materializing, for every node in the first
// list, the LCA closure against all other lists, then removing
// non-smallest results. It is O(n²) in the worst case and is the
// correctness oracle every SLCA implementation is held to.
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
			cur = bestLCAWith(cur, other)
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
	smallest, others, ok := split(lists)
	if !ok {
		return nil
	}
	if len(lists) == 1 {
		return removeAncestors(dedupe(cloneIDs(lists[0])))
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

	for _, v := range smallest {
		cand := v.Clone()
		for _, other := range others {
			cand = closestLCA(cand, other)
		}
		push(cand)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return removeAncestors(out)
}

// closestLCA returns the deepest LCA of id with either the closest
// left or closest right neighbour in the non-empty list (document
// order).
func closestLCA(id dewey.ID, list index.PostingList) dewey.ID {
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

// ScanEager computes SLCAs with the Scan Eager algorithm (Xu &
// Papakonstantinou's merge-based variant): like IndexedLookupEager it
// walks the smallest posting list, but locates each node's closest
// left/right neighbours in the other lists with monotonically
// advancing pointers instead of binary searches.
func ScanEager(lists []index.PostingList) []dewey.ID {
	smallest, others, ok := split(lists)
	if !ok {
		return nil
	}
	if len(lists) == 1 {
		return removeAncestors(dedupe(cloneIDs(lists[0])))
	}
	ptrs := make([]int, len(others))

	var out []dewey.ID
	for _, v := range smallest {
		cand := v.Clone()
		for oi, other := range others {
			// Advance the pointer to the first element >= v.
			p := ptrs[oi]
			for p < len(other) && other[p].Compare(v) < 0 {
				p++
			}
			ptrs[oi] = p
			best := dewey.Root()
			if p < len(other) {
				if l := cand.LCA(other[p]); l.Level() >= best.Level() {
					best = l
				}
			}
			if p > 0 {
				if l := cand.LCA(other[p-1]); l.Level() > best.Level() {
					best = l
				}
			}
			cand = best
		}
		out = append(out, cand)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return removeAncestors(dedupe(out))
}

// split picks the smallest list as the driver and returns the rest in
// their original order; ok is false when there is nothing to compute
// (no lists, or an empty one).
func split(lists []index.PostingList) (smallest index.PostingList, others []index.PostingList, ok bool) {
	if len(lists) == 0 {
		return nil, nil, false
	}
	si := 0
	for i, l := range lists {
		if len(l) == 0 {
			return nil, nil, false
		}
		if len(l) < len(lists[si]) {
			si = i
		}
	}
	for i, l := range lists {
		if i != si {
			others = append(others, l)
		}
	}
	return lists[si], others, true
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
