package index

import (
	"repro/internal/dewey"
)

// Block-max score bounds: the metadata behind WAND-style top-k
// pruning (xseek's score-bounded consumer). For each posting list we
// keep, per 64-posting block, an upper bound on the term frequency
// any single result subtree intersecting that block (or any later
// block) can reach — so a ranked consumer holding a full top-k heap
// can prove that no remaining entity can displace the kept worst and
// stop scoring (or stop draining entirely, in approximate mode).
//
// The bound is built from depth-1 groups. Postings are document-
// ordered Dewey IDs, so postings sharing a first component — the same
// top-level subtree — form one contiguous run. Any result node with a
// non-empty ID lies inside exactly one top-level subtree, and every
// posting it dominates shares its first component, so its term
// frequency is at most its group's whole-list run length. A block's
// max is the largest run length among the groups touching it, and the
// suffix maximum over blocks bounds every entity whose first covering
// block is at or past b:
//
//	tf(e) <= suffix[firstBlock(e.ID)]   for len(e.ID) > 0
//
// because e's own postings (all >= e.ID in document order) place e's
// group in some block >= firstBlock(e.ID). The root (empty ID) spans
// every group and is NOT covered — consumers must score it exactly.
//
// Both bound sources feed the same structure: heap-resident lists via
// BoundsOf, compact (v4) payloads via the per-block max-tf field the
// codec stores next to the last-ID directory (compact.go).

// ListBounds is one posting list's immutable block-max metadata: the
// per-block last IDs (the block directory) and the suffix maxima of
// the per-block tf bounds.
type ListBounds struct {
	lasts  PostingList
	suffix []int32
}

// emptyBounds backs absent lists: zero blocks, every bound 0.
var emptyBounds = &ListBounds{}

// blockMaxTFs computes the per-block tf bound of a document-ordered
// list: for each compactBlock-sized block, the largest depth-1 group
// run length among the postings in it. Root postings (empty IDs)
// belong to no group and are skipped — the root is scored exactly.
func blockMaxTFs(list PostingList) []int32 {
	nb := (len(list) + compactBlock - 1) / compactBlock
	out := make([]int32, nb)
	for i := 0; i < len(list); {
		if len(list[i]) == 0 {
			i++
			continue
		}
		c := list[i][0]
		j := i + 1
		for j < len(list) && len(list[j]) > 0 && list[j][0] == c {
			j++
		}
		n := int32(j - i)
		for b := i / compactBlock; b <= (j-1)/compactBlock; b++ {
			if n > out[b] {
				out[b] = n
			}
		}
		i = j
	}
	return out
}

// suffixMax folds per-block maxima into their suffix maxima, in
// place: out[b] = max(in[b:]).
func suffixMax(m []int32) []int32 {
	for b := len(m) - 2; b >= 0; b-- {
		if m[b+1] > m[b] {
			m[b] = m[b+1]
		}
	}
	return m
}

// BoundsOf computes the block-max bound metadata of a document-
// ordered posting list in one pass. The result shares no memory with
// derived state that could change; list itself must stay immutable
// (the standing PostingList contract).
func BoundsOf(list PostingList) *ListBounds {
	if len(list) == 0 {
		return emptyBounds
	}
	nb := (len(list) + compactBlock - 1) / compactBlock
	lasts := make(PostingList, nb)
	for b := range lasts {
		lasts[b] = list[min((b+1)*compactBlock, len(list))-1]
	}
	return &ListBounds{lasts: lasts, suffix: suffixMax(blockMaxTFs(list))}
}

// Blocks returns the number of 64-posting blocks the list spans.
func (lb *ListBounds) Blocks() int { return len(lb.suffix) }

// MaxTF returns the whole-list tf bound: no single non-root result
// subtree can contain more than this many of the list's postings.
func (lb *ListBounds) MaxTF() int {
	if len(lb.suffix) == 0 {
		return 0
	}
	return int(lb.suffix[0])
}

// BoundCursor is the monotone consumer interface over bound metadata:
// MaxTFFrom must be called with non-decreasing (document-ordered),
// non-empty IDs and returns an upper bound on the term frequency of
// the queried entity and of every later one. BlocksLeft reports how
// many blocks the cursor has not yet passed — the work a cutoff
// saves, surfaced as the blocks_skipped metric.
type BoundCursor interface {
	MaxTFFrom(id dewey.ID) int
	BlocksLeft() int
}

// listBoundCursor advances linearly over one list's block directory;
// queries are monotone, so a whole query's advances cost O(blocks)
// total.
type listBoundCursor struct {
	lb  *ListBounds
	cur int
}

// Cursor returns a fresh bound cursor positioned before the first
// block.
func (lb *ListBounds) Cursor() BoundCursor { return &listBoundCursor{lb: lb} }

func (c *listBoundCursor) MaxTFFrom(id dewey.ID) int {
	lasts := c.lb.lasts
	for c.cur < len(lasts) && lasts[c.cur].Compare(id) < 0 {
		c.cur++
	}
	if c.cur >= len(c.lb.suffix) {
		return 0 // every posting precedes id: nothing left under it
	}
	return int(c.lb.suffix[c.cur])
}

func (c *listBoundCursor) BlocksLeft() int { return len(c.lb.suffix) - c.cur }

// maxBoundCursor bounds a composition whose parts never split one
// subtree's postings: the max of the parts' bounds. Valid for the
// live delta ⊕ base composition — an added entity's postings live
// entirely in the delta (fresh top-level ordinals), a base node's
// entirely in the base.
type maxBoundCursor struct{ parts []BoundCursor }

// MaxBoundCursor composes part cursors by max. Use only when every
// result subtree's postings are known to live in exactly one part;
// otherwise compose with SumBoundCursor.
func MaxBoundCursor(parts ...BoundCursor) BoundCursor {
	if len(parts) == 1 {
		return parts[0]
	}
	return &maxBoundCursor{parts: parts}
}

func (c *maxBoundCursor) MaxTFFrom(id dewey.ID) int {
	ub := 0
	for _, p := range c.parts {
		if v := p.MaxTFFrom(id); v > ub {
			ub = v
		}
	}
	return ub
}

func (c *maxBoundCursor) BlocksLeft() int {
	n := 0
	for _, p := range c.parts {
		n += p.BlocksLeft()
	}
	return n
}

// sumBoundCursor bounds an arbitrary partition of one corpus's
// postings: tf is additive over disjoint parts, so the sum of the
// parts' bounds is always admissible (if loose). A live base held as
// a partition's parts needs it — a spine wrapper node's subtree can
// span the spine part and several shard parts.
type sumBoundCursor struct{ parts []BoundCursor }

// SumBoundCursor composes part cursors by sum — the always-valid
// composition for parts that partition one logical posting list.
func SumBoundCursor(parts ...BoundCursor) BoundCursor {
	if len(parts) == 1 {
		return parts[0]
	}
	return &sumBoundCursor{parts: parts}
}

func (c *sumBoundCursor) MaxTFFrom(id dewey.ID) int {
	ub := 0
	for _, p := range c.parts {
		ub += p.MaxTFFrom(id)
	}
	return ub
}

func (c *sumBoundCursor) BlocksLeft() int {
	n := 0
	for _, p := range c.parts {
		n += p.BlocksLeft()
	}
	return n
}

// TermBounds returns term's block-max bound metadata, computing it on
// first use and caching it per symbol: from the heap list when the
// list is resident, or straight from the compact payload's per-block
// max-tf directory without materializing the list. A nil return means
// the backing payload predates block maxima (a legacy v4 snapshot) —
// the caller's signal to fall back to unpruned streaming. Terms the
// index does not know return the empty bounds, never nil.
func (idx *Index) TermBounds(term string) *ListBounds {
	id, ok := idx.symbols.ID(term)
	if !ok {
		return emptyBounds
	}
	return idx.boundsID(id)
}

func (idx *Index) boundsID(id uint32) *ListBounds {
	idx.boundsMu.Lock()
	lb, ok := idx.bounds[id]
	idx.boundsMu.Unlock()
	if ok {
		return lb
	}
	// postings is read-only after construction, so the unlocked read
	// is safe; compact materialization has its own lock.
	if l, ok := idx.postings[id]; ok {
		lb = BoundsOf(l)
	} else if idx.compact != nil {
		lb = idx.compact.bounds(id)
		if lb == nil {
			return nil // legacy payload: bounds unavailable, don't cache
		}
	} else {
		lb = emptyBounds
	}
	idx.boundsMu.Lock()
	if prior, ok := idx.bounds[id]; ok {
		lb = prior
	} else {
		if idx.bounds == nil {
			idx.bounds = make(map[uint32]*ListBounds)
		}
		idx.bounds[id] = lb
	}
	idx.boundsMu.Unlock()
	return lb
}
