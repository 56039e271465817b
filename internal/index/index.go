package index

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/dewey"
	"repro/internal/xmltree"
)

// PostingList is the document-ordered list of Dewey IDs of nodes that
// contain a term. Lists are sorted by dewey.ID.Compare and contain no
// duplicates.
type PostingList []dewey.ID

// Index is an inverted index over one XML tree. A node "contains" a
// term if the term appears in the node's direct text children, in its
// attribute values, or equals a token of its tag name. Only element
// nodes are posted; the element owning a text node is what keyword
// search should return.
//
// Terms are interned through a SymbolTable (possibly shared with other
// indexes — see intern.go) and every internal map is keyed by the
// dense uint32 symbol ID; the string-keyed API resolves through the
// table. Postings live either in the heap map or, for snapshot-opened
// indexes, in a compact varint payload decoded lazily (compact.go).
type Index struct {
	symbols  *SymbolTable
	postings map[uint32]PostingList
	root     *xmltree.Node
	terms    int // total term occurrences, for stats
	elements int // distinct elements with at least one posting
	// skips holds the skip-pointer ladders of long posting lists (see
	// skips.go); nil until buildSkips runs, absent for short lists.
	skips map[uint32]PostingList
	// compact backs a snapshot-opened index: lists absent from the
	// postings map are served (and materialized on demand) from it.
	compact *compactPostings
	// lids memoizes term→ID for this builder so indexing pays one
	// synchronized table hit per distinct term, not per posting.
	// Dropped when the build finishes.
	lids map[string]uint32
	// bounds caches per-term block-max score bounds (bounds.go),
	// computed lazily on the first WAND query touching the term.
	boundsMu sync.Mutex
	bounds   map[uint32]*ListBounds
}

// newIndex returns an empty index over root interning into st (a fresh
// table when nil).
func newIndex(root *xmltree.Node, st *SymbolTable) *Index {
	if st == nil {
		st = NewSymbolTable()
	}
	return &Index{
		symbols:  st,
		postings: make(map[uint32]PostingList),
		root:     root,
	}
}

// Build constructs an index over the tree rooted at root. The tree must
// already carry Dewey IDs (xmltree.Parse assigns them; call AssignIDs
// after manual construction).
func Build(root *xmltree.Node) *Index {
	idx := newIndex(root, nil)
	idx.indexSubtree(root)
	// Walk is preorder, which is document order, so lists are already
	// sorted; ensureSorted is a safety net for hand-built trees whose
	// IDs were assigned out of order.
	idx.ensureSorted()
	return idx
}

// intern resolves term to its symbol ID through the build-local memo.
func (idx *Index) intern(term string) uint32 {
	if id, ok := idx.lids[term]; ok {
		return id
	}
	id := idx.symbols.Intern(term)
	if idx.lids == nil {
		idx.lids = make(map[string]uint32)
	}
	idx.lids[term] = id
	return id
}

// indexNode posts the terms of a single element node.
func (idx *Index) indexNode(n *xmltree.Node) {
	if n.Kind != xmltree.Element {
		return
	}
	seen := make(map[uint32]bool)
	add := func(term string) {
		if term == "" {
			return
		}
		id := idx.intern(term)
		if seen[id] {
			return
		}
		if len(seen) == 0 {
			idx.elements++
		}
		seen[id] = true
		idx.postings[id] = append(idx.postings[id], n.ID)
		idx.terms++
	}
	for _, t := range Tokenize(n.Tag) {
		add(t)
	}
	for _, a := range n.Attrs {
		for _, t := range Tokenize(a.Value) {
			add(t)
		}
	}
	for _, c := range n.Children {
		if c.Kind == xmltree.Text {
			for _, t := range Tokenize(c.Text) {
				add(t)
			}
		}
	}
}

// indexSubtree posts every element in root's subtree in document order.
func (idx *Index) indexSubtree(root *xmltree.Node) {
	root.Walk(func(n *xmltree.Node) bool {
		idx.indexNode(n)
		return true
	})
}

// Root returns the tree the index was built over.
func (idx *Index) Root() *xmltree.Node { return idx.root }

// Symbols returns the index's symbol table. Shared tables are common:
// deltas intern into their base's table, shards into their engine's.
func (idx *Index) Symbols() *SymbolTable { return idx.symbols }

// TermID resolves term through the symbol table. Note a shared table
// may know terms this particular index holds no postings for.
func (idx *Index) TermID(term string) (uint32, bool) { return idx.symbols.ID(term) }

// lookupID returns the posting list behind a symbol ID, materializing
// compact-backed lists on first touch.
func (idx *Index) lookupID(id uint32) PostingList {
	if l, ok := idx.postings[id]; ok {
		return l
	}
	if idx.compact != nil {
		return idx.compact.materialize(id)
	}
	return nil
}

// Lookup returns the posting list for term (already lowercased by
// Tokenize conventions). The returned slice must not be modified.
func (idx *Index) Lookup(term string) PostingList {
	id, ok := idx.symbols.ID(term)
	if !ok {
		return nil
	}
	return idx.lookupID(id)
}

// DocFreq returns the number of nodes containing term.
func (idx *Index) DocFreq(term string) int {
	id, ok := idx.symbols.ID(term)
	if !ok {
		return 0
	}
	return idx.docFreqID(id)
}

func (idx *Index) docFreqID(id uint32) int {
	if l, ok := idx.postings[id]; ok {
		return len(l)
	}
	if idx.compact != nil {
		return idx.compact.count(id)
	}
	return 0
}

// EachTermID calls f for every indexed term's symbol ID and document
// frequency without resolving names — the cheapest whole-vocabulary
// walk. Compact-backed indexes answer from the directory alone.
func (idx *Index) EachTermID(f func(id uint32, df int)) {
	if idx.compact != nil {
		idx.compact.each(f)
		return
	}
	for id, l := range idx.postings {
		f(id, len(l))
	}
}

// EachTerm calls f for every indexed term with its document frequency,
// in unspecified order — the allocation- and sort-free walk for
// callers that aggregate over the whole vocabulary.
func (idx *Index) EachTerm(f func(term string, df int)) {
	idx.EachTermID(func(id uint32, df int) {
		f(idx.symbols.Name(id), df)
	})
}

// eachList visits every non-empty posting list by symbol ID,
// materializing compact-backed lists.
func (idx *Index) eachList(f func(id uint32, list PostingList)) {
	if idx.compact != nil {
		idx.compact.each(func(id uint32, _ int) {
			f(id, idx.compact.materialize(id))
		})
		return
	}
	for id, l := range idx.postings {
		f(id, l)
	}
}

// Vocabulary returns all indexed terms in lexicographic order.
func (idx *Index) Vocabulary() []string {
	var terms []string
	idx.EachTermID(func(id uint32, _ int) {
		terms = append(terms, idx.symbols.Name(id))
	})
	sort.Strings(terms)
	return terms
}

// Stats summarizes the index. The JSON form is served by xsactd's
// /api/v1/metrics endpoint.
type Stats struct {
	Terms           int `json:"terms"`            // distinct terms
	Postings        int `json:"postings"`         // total postings
	IndexedElements int `json:"indexed_elements"` // distinct elements with at least one posting
}

// Stats returns summary statistics for the index.
func (idx *Index) Stats() Stats {
	s := Stats{IndexedElements: idx.elements}
	idx.EachTermID(func(_ uint32, df int) {
		s.Terms++
		s.Postings += df
	})
	return s
}

// MemStats reports where the index's postings live. For a fully
// in-heap index DataBytes is 0 and every list is resident; for a
// compact-backed (snapshot-opened) index DataBytes is the payload size
// and the resident numbers grow only as queries decode lists.
type MemStats struct {
	DataBytes      int64 `json:"data_bytes"`      // compact payload backing the index
	ResidentLists  int64 `json:"resident_lists"`  // lists decoded into the heap
	ResidentBlocks int64 `json:"resident_blocks"` // 64-posting blocks decoded into the heap
}

// MemStats returns the index's residency counters.
func (idx *Index) MemStats() MemStats {
	var ms MemStats
	for _, l := range idx.postings {
		ms.ResidentLists++
		ms.ResidentBlocks += int64((len(l) + compactBlock - 1) / compactBlock)
	}
	if cp := idx.compact; cp != nil {
		ms.DataBytes = int64(len(cp.data))
		cp.mu.RLock()
		ms.ResidentLists += int64(len(cp.resident))
		ms.ResidentBlocks += int64(cp.residentBlocks)
		cp.mu.RUnlock()
	}
	return ms
}

// PlanStats summarizes the shape of a query's posting lists so callers
// can choose an execution strategy (which SLCA algorithm, whether to
// bother at all) without re-resolving the terms.
type PlanStats struct {
	// Lengths holds each term's posting-list length, in term order.
	Lengths []int
	// Min and Max are the smallest and largest list lengths. The
	// smallest list is the driving list of the eager SLCA algorithms.
	Min, Max int
	// Skew is Max/Min, the planner's main signal: a high ratio means a
	// rare term drives the search and indexed lookups into the long
	// lists win; near 1 means the lists are uniform and a linear merge
	// wins. Skew is 0 when any list is empty (the query cannot match).
	Skew float64
}

// StatsOf computes plan statistics for an already-resolved list set.
func StatsOf(lists []PostingList) PlanStats {
	lengths := make([]int, len(lists))
	for i, l := range lists {
		lengths[i] = len(l)
	}
	return LengthStats(lengths)
}

// LengthStats computes plan statistics from the lists' lengths alone
// (retained as Lengths) — what a caller holding document frequencies
// but no materialised lists can plan from.
func LengthStats(lengths []int) PlanStats {
	s := PlanStats{Lengths: lengths}
	for i, n := range lengths {
		if i == 0 || n < s.Min {
			s.Min = n
		}
		if n > s.Max {
			s.Max = n
		}
	}
	if s.Min > 0 {
		s.Skew = float64(s.Max) / float64(s.Min)
	}
	return s
}

// QueryLists resolves each query term to its posting list, along with
// the plan statistics of the resolved set. It returns an error listing
// the terms with empty postings, because SLCA over an absent keyword is
// defined to be empty and callers usually want to report that to the
// user instead.
func (idx *Index) QueryLists(terms []string) ([]PostingList, PlanStats, error) {
	lists := make([]PostingList, len(terms))
	var missing []string
	for i, t := range terms {
		lists[i] = idx.Lookup(t)
		if len(lists[i]) == 0 {
			missing = append(missing, t)
		}
	}
	stats := StatsOf(lists)
	if len(missing) > 0 {
		return lists, stats, &NoMatchError{Terms: missing}
	}
	return lists, stats, nil
}

// NoMatchError reports query keywords that match no node.
type NoMatchError struct {
	Terms []string
}

func (e *NoMatchError) Error() string {
	return fmt.Sprintf("index: no matches for keywords %v", e.Terms)
}
