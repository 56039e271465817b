package index

import (
	"sort"

	"repro/internal/dewey"
	"repro/internal/xmltree"
)

// This file holds the posting-list algebra of the live write path
// (package update): composing a base index with a delta index and a
// tombstone set without rebuilding either.

// MergeLists merges document-ordered posting lists over disjoint node
// sets into one document-ordered list. The live read path uses it to
// present per-part (plus delta) lists as the single list a monolithic
// index would hold.
func MergeLists(lists ...PostingList) PostingList {
	// First pass allocates nothing: count the non-empty inputs and
	// check whether they already chain end-to-start in document order —
	// the common shape on the live read path, where base shards and the
	// delta cover successive Dewey ranges.
	n, total := 0, 0
	var first, second PostingList
	chained := true
	var prevLast dewey.ID
	for _, l := range lists {
		if len(l) == 0 {
			continue
		}
		if n == 0 {
			first = l
		} else if n == 1 {
			second = l
		}
		if n > 0 && prevLast.Compare(l[0]) >= 0 {
			chained = false
		}
		prevLast = l[len(l)-1]
		n++
		total += len(l)
	}
	switch n {
	case 0:
		return nil
	case 1:
		return first
	}
	out := make(PostingList, 0, total)
	if chained {
		for _, l := range lists {
			out = append(out, l...)
		}
		return out
	}
	if n == 2 {
		return mergeTwo(out, first, second)
	}
	nonEmpty := make([]PostingList, 0, n)
	for _, l := range lists {
		if len(l) > 0 {
			nonEmpty = append(nonEmpty, l)
		}
	}
	pos := make([]int, len(nonEmpty))
	for len(out) < total {
		best := -1
		for i, l := range nonEmpty {
			if pos[i] == len(l) {
				continue
			}
			if best == -1 || l[pos[i]].Compare(nonEmpty[best][pos[best]]) < 0 {
				best = i
			}
		}
		out = append(out, nonEmpty[best][pos[best]])
		pos[best]++
	}
	return out
}

// mergeTwo merges two overlapping document-ordered lists into out
// (empty, pre-sized) without the k-way scan's per-element overhead.
func mergeTwo(out, a, b PostingList) PostingList {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Compare(b[j]) <= 0 {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// Without returns list minus every posting that falls inside one of
// the subtrees rooted at exclude. exclude must be sorted in document
// order and pairwise disjoint (no ID an ancestor of another), which is
// what a tombstone set over top-level entities is. When nothing is
// excluded the input list is returned unchanged (and must then be
// treated as shared).
func Without(list PostingList, exclude []dewey.ID) PostingList {
	if len(list) == 0 || len(exclude) == 0 {
		return list
	}
	// Pass 1, allocation-free: measure how much the exclusion actually
	// removes. Most live reads exclude nothing from most lists (the
	// tombstoned entities rarely contain a given term), and those calls
	// must not copy — Without runs per term per part on every query.
	removed := 0
	i := 0
	for _, ex := range exclude {
		lo, hi := excludedBlock(list, ex)
		if lo < i {
			lo = i
		}
		if hi > lo {
			removed += hi - lo
			i = hi
		}
	}
	if removed == 0 {
		return list
	}
	kept := make(PostingList, 0, len(list)-removed)
	i = 0
	for _, ex := range exclude {
		lo, hi := excludedBlock(list, ex)
		if lo < i {
			lo = i
		}
		kept = append(kept, list[i:lo]...)
		if hi > i {
			i = hi
		}
	}
	return append(kept, list[i:]...)
}

// excludedBlock bounds the contiguous run of list that falls inside
// ex's subtree: descendants-or-self of ex form one block in document
// order, so two binary searches delimit it.
func excludedBlock(list PostingList, ex dewey.ID) (lo, hi int) {
	lo = sort.Search(len(list), func(k int) bool {
		return list[k].Compare(ex) >= 0
	})
	hi = sort.Search(len(list), func(k int) bool {
		return list[k].Compare(ex) > 0 && !ex.IsAncestorOrSelf(list[k])
	})
	return lo, hi
}

// Merge combines a base index with a delta index built over later
// document positions: every delta posting must follow every base
// posting of the same term in document order, which holds by
// construction when the delta indexes entities appended after the
// base's last top-level child. Shared (unmodified) posting lists are
// reused, not copied; the inputs must stay immutable afterwards. root
// is the tree the merged index describes.
func Merge(root *xmltree.Node, base, delta *Index) *Index {
	m := &Index{
		symbols:  base.symbols,
		postings: make(map[uint32]PostingList),
		root:     root,
		terms:    base.terms + delta.terms,
		elements: base.elements + delta.elements,
	}
	base.eachList(func(id uint32, l PostingList) {
		m.postings[id] = l
	})
	// When delta shares base's table (the live write path builds it
	// that way) IDs line up and the merge is ID-direct; a foreign-table
	// delta remaps by name, costing one intern per delta term.
	sameTable := delta.symbols == base.symbols
	delta.eachList(func(did uint32, d PostingList) {
		id := did
		if !sameTable {
			id = base.symbols.Intern(delta.symbols.Name(did))
		}
		l, ok := m.postings[id]
		if !ok {
			m.postings[id] = d
			return
		}
		nl := make(PostingList, 0, len(l)+len(d))
		m.postings[id] = append(append(nl, l...), d...)
	})
	// Safety net, mirroring Build: a misuse that violates the append
	// precondition degrades to a sort, not a corrupt index.
	m.ensureSorted()
	return m
}
