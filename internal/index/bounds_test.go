package index

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dewey"
	"repro/internal/xmltree"
)

// randomGroupedList builds a strictly increasing posting list whose
// IDs fall into depth-1 groups of varied sizes — the structure the
// block-max bound is built over.
func randomGroupedList(r *rand.Rand, n int) PostingList {
	list := make(PostingList, 0, n)
	g, x := 0, 0
	for len(list) < n {
		if x > 0 && r.Intn(6) == 0 {
			g += 1 + r.Intn(3)
			x = 0
		}
		x += 1 + r.Intn(4)
		list = append(list, dewey.New(g, x, r.Intn(3)))
	}
	return list
}

// listIndex wraps one list as a servable in-heap index under term "t".
func listIndex(list PostingList) *Index {
	idx := newIndex(nil, nil)
	idx.postings[idx.intern("t")] = list
	idx.ensureSorted()
	return idx
}

// TestBoundsAdmissible: for every node of a real corpus, the bound
// cursor queried at the node's ID (in document order) must dominate
// the node's actual term frequency — the invariant the WAND consumer's
// correctness rests on — for heap-resident and compact-served bounds
// alike.
func TestBoundsAdmissible(t *testing.T) {
	root := dataset.Movies(dataset.MoviesConfig{Seed: 9, Movies: 120})
	built := Build(root)
	compact := func() *Index {
		st := NewSymbolTable()
		payload, err := EncodeCompact(built, st)
		if err != nil {
			t.Fatal(err)
		}
		out, err := OpenCompact(root, st, payload)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}()

	var walk func(n *xmltree.Node, visit func(*xmltree.Node))
	walk = func(n *xmltree.Node, visit func(*xmltree.Node)) {
		visit(n)
		for _, c := range n.Children {
			walk(c, visit)
		}
	}
	for _, idx := range []*Index{built, compact} {
		for _, term := range []string{"movie", "action", "revenge", "director"} {
			lb := idx.TermBounds(term)
			if lb == nil {
				t.Fatalf("TermBounds(%q) = nil on a current-format index", term)
			}
			list := built.Lookup(term)
			cur := lb.Cursor()
			counter := NewCounter(list)
			walk(root, func(n *xmltree.Node) {
				if len(n.ID) == 0 {
					return // the root is exempt by contract
				}
				tf := counter.CountUnder(n.ID)
				ub := cur.MaxTFFrom(n.ID)
				if tf > ub {
					t.Fatalf("term %q node %v: tf %d exceeds bound %d", term, n.ID, tf, ub)
				}
			})
			if lb.MaxTF() > len(list) {
				t.Fatalf("term %q: MaxTF %d exceeds list length %d", term, lb.MaxTF(), len(list))
			}
		}
		if lb := idx.TermBounds("no-such-term"); lb == nil || lb.Blocks() != 0 {
			t.Fatalf("unknown term bounds = %v, want empty", lb)
		}
	}
}

// TestBoundCursorMonotone pins the cursor mechanics on a handcrafted
// list: suffix maxima, exhaustion, and BlocksLeft accounting.
func TestBoundCursorMonotone(t *testing.T) {
	// Three groups: sizes 3, 1, 2 — all within one block.
	list := PostingList{
		dewey.New(0, 1), dewey.New(0, 2), dewey.New(0, 3),
		dewey.New(1, 1),
		dewey.New(2, 1), dewey.New(2, 2),
	}
	lb := BoundsOf(list)
	if lb.Blocks() != 1 || lb.MaxTF() != 3 {
		t.Fatalf("Blocks=%d MaxTF=%d, want 1/3", lb.Blocks(), lb.MaxTF())
	}
	cur := lb.Cursor()
	if got := cur.MaxTFFrom(dewey.ID{0}); got != 3 {
		t.Fatalf("MaxTFFrom({0}) = %d, want 3", got)
	}
	if got := cur.BlocksLeft(); got != 1 {
		t.Fatalf("BlocksLeft = %d, want 1", got)
	}
	// Past the whole list: bound 0, nothing left.
	if got := cur.MaxTFFrom(dewey.ID{9}); got != 0 {
		t.Fatalf("MaxTFFrom({9}) = %d, want 0", got)
	}
	if got := cur.BlocksLeft(); got != 0 {
		t.Fatalf("exhausted BlocksLeft = %d, want 0", got)
	}

	// Composition: max picks the larger side.
	a, b := BoundsOf(list).Cursor(), BoundsOf(list[:4]).Cursor()
	if got := MaxBoundCursor(a, b).MaxTFFrom(dewey.ID{0}); got != 3 {
		t.Fatalf("max composition = %d, want 3", got)
	}
}

// encodeCompactLegacy writes idx's postings in the original compact
// layout: no magic/version header, no per-block max-tf directory. It
// is the byte form old v4 snapshots carry, kept here to pin that
// OpenCompact refuses it.
func encodeCompactLegacy(t *testing.T, idx *Index, st *SymbolTable) []byte {
	t.Helper()
	lists := make(map[uint32]PostingList)
	remap := st != idx.symbols
	idx.eachList(func(id uint32, l PostingList) {
		if remap {
			id = st.Intern(idx.symbols.Name(id))
		}
		lists[id] = l
	})
	n := st.Len()
	buf := binary.AppendUvarint(nil, uint64(idx.terms))
	buf = binary.AppendUvarint(buf, uint64(idx.elements))
	buf = binary.AppendUvarint(buf, uint64(n))
	for id := 0; id < n; id++ {
		l := lists[uint32(id)]
		if len(l) == 0 {
			buf = binary.AppendUvarint(buf, 0)
			continue
		}
		count := len(l)
		nBlocks := (count + compactBlock - 1) / compactBlock
		var region []byte
		region = binary.AppendUvarint(region, uint64(count))
		region = binary.AppendUvarint(region, uint64(nBlocks))
		blocks := make([][]byte, nBlocks)
		for bi := 0; bi < nBlocks; bi++ {
			lo, hi := bi*compactBlock, (bi+1)*compactBlock
			if hi > count {
				hi = count
			}
			blk, err := appendBlock(nil, l[lo:hi])
			if err != nil {
				t.Fatalf("appendBlock: %v", err)
			}
			blocks[bi] = blk
		}
		for _, blk := range blocks {
			region = binary.AppendUvarint(region, uint64(len(blk)))
		}
		for bi := 0; bi < nBlocks; bi++ {
			region = appendCompactID(region, l[min((bi+1)*compactBlock, count)-1])
		}
		for _, blk := range blocks {
			region = append(region, blk...)
		}
		buf = binary.AppendUvarint(buf, uint64(len(region)))
		buf = append(buf, region...)
	}
	return buf
}

// TestLegacyCompactPayloadRejected: a payload written before block
// maxima existed is refused with ErrPreBoundsPayload, the signal for
// the caller to rebuild the index from the tree, so every served index
// carries bounds.
func TestLegacyCompactPayloadRejected(t *testing.T) {
	root := dataset.Movies(dataset.MoviesConfig{Seed: 4, Movies: 80})
	idx := Build(root)
	st := NewSymbolTable()
	payload := encodeCompactLegacy(t, idx, st)
	if _, err := OpenCompact(root, st, payload); !errors.Is(err, ErrPreBoundsPayload) {
		t.Fatalf("OpenCompact(legacy) err = %v, want ErrPreBoundsPayload", err)
	}
	// The current encoding of the same index opens, and every term it
	// knows reports bounds.
	current, err := EncodeCompact(idx, st)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := OpenCompact(root, st, current)
	if err != nil {
		t.Fatal(err)
	}
	for _, term := range idx.Vocabulary() {
		if lb := opened.TermBounds(term); lb.Blocks() == 0 {
			t.Fatalf("TermBounds(%q) reports no blocks on a current payload", term)
		}
	}
}

// TestCompactVersionRejected: a versioned payload declaring an unknown
// revision must fail closed at open.
func TestCompactVersionRejected(t *testing.T) {
	buf := binary.AppendUvarint(nil, compactMagic)
	buf = binary.AppendUvarint(buf, compactVersion+1)
	buf = binary.AppendUvarint(buf, 0) // terms
	buf = binary.AppendUvarint(buf, 0) // elements
	buf = binary.AppendUvarint(buf, 0) // nLists
	if _, err := OpenCompact(nil, NewSymbolTable(), buf); err == nil {
		t.Fatal("unknown payload version opened without error")
	}
}

// skipRef is the reference model fuzzed cursors are checked against: a
// plain position over the materialized list with the same block
// arithmetic the blockIter promises.
type skipRef struct {
	list PostingList
	max  []int32
	pos  int
}

func (r *skipRef) curBlock() int {
	if r.pos >= len(r.list) {
		return len(r.max)
	}
	return r.pos / compactBlock
}

func (r *skipRef) blockMaxTF() int {
	cur := r.curBlock()
	if cur >= len(r.max) {
		return 0
	}
	return int(r.max[cur])
}

func (r *skipRef) skipBlock() bool {
	cur := r.curBlock()
	if cur+1 >= len(r.max) {
		r.pos = len(r.list)
		return false
	}
	r.pos = (cur + 1) * compactBlock
	return true
}

// driveSkipEquivalence runs one op sequence over a blockIter and the
// reference model, failing on the first divergence.
func driveSkipEquivalence(t *testing.T, list PostingList, ops []byte) {
	t.Helper()
	cidx := func() *Index {
		idx := listIndex(list)
		st := NewSymbolTable()
		payload, err := EncodeCompact(idx, st)
		if err != nil {
			t.Fatal(err)
		}
		out, err := OpenCompact(nil, st, payload)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}()
	a, ok := cidx.TermIter("t").(*blockIter)
	if !ok {
		t.Fatalf("expected a blockIter, got %T", cidx.TermIter("t"))
	}
	ref := &skipRef{list: list, max: blockMaxTFs(list)}
	tgtG, tgtX := 0, 0
	for i, op := range ops {
		switch op % 3 {
		case 0:
			av, aok := a.Next()
			var bv dewey.ID
			bok := ref.pos < len(ref.list)
			if bok {
				bv = ref.list[ref.pos]
				ref.pos++
			}
			if aok != bok || (aok && !av.Equal(bv)) {
				t.Fatalf("op %d Next: block %v/%v, ref %v/%v", i, av, aok, bv, bok)
			}
		case 1:
			// Forward-only Seek targets (the Iter contract).
			tgtX += int(op) % 7
			if op%5 == 0 {
				tgtG++
				tgtX = 0
			}
			id := dewey.New(tgtG, tgtX)
			av, aok := a.Seek(id)
			for ref.pos < len(ref.list) && ref.list[ref.pos].Compare(id) < 0 {
				ref.pos++
			}
			var bv dewey.ID
			bok := ref.pos < len(ref.list)
			if bok {
				bv = ref.list[ref.pos]
			}
			if aok != bok || (aok && !av.Equal(bv)) {
				t.Fatalf("op %d Seek(%v): block %v/%v, ref %v/%v", i, id, av, aok, bv, bok)
			}
		default:
			am := a.BlockMaxTF()
			bm := ref.blockMaxTF()
			if am != bm {
				t.Fatalf("op %d BlockMaxTF: block %d, ref %d (pos %d)", i, am, bm, ref.pos)
			}
			aok := a.SkipBlock()
			bok := ref.skipBlock()
			if aok != bok {
				t.Fatalf("op %d SkipBlock: block %v, ref %v", i, aok, bok)
			}
			av, aPeek := a.Peek()
			var bv dewey.ID
			bPeek := ref.pos < len(ref.list)
			if bPeek {
				bv = ref.list[ref.pos]
			}
			if aPeek != bPeek || (aPeek && !av.Equal(bv)) {
				t.Fatalf("op %d post-skip Peek: block %v/%v, ref %v/%v", i, av, aPeek, bv, bPeek)
			}
		}
	}
}

// TestBlockIterSkipBlockEquivalence: deterministic sweep of the fuzz
// property over list shapes that straddle block boundaries.
func TestBlockIterSkipBlockEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, n := range []int{1, compactBlock - 1, compactBlock, compactBlock + 1, 3*compactBlock + 7, 10 * compactBlock} {
		list := randomGroupedList(r, n)
		for trial := 0; trial < 10; trial++ {
			ops := make([]byte, 80)
			r.Read(ops)
			driveSkipEquivalence(t, list, ops)
		}
	}
}

// FuzzBlockIterSkipBlock fuzzes SkipBlock/BlockMaxTF/Next/Seek
// interleavings on the lazily-decoding cursor against the materialized
// reference model.
func FuzzBlockIterSkipBlock(f *testing.F) {
	f.Add(int64(1), uint16(100), []byte{0, 1, 2, 2, 1, 0})
	f.Add(int64(7), uint16(300), []byte{2, 2, 2, 2, 2, 2, 2, 2})
	f.Add(int64(42), uint16(1), []byte{2, 0, 1})
	f.Fuzz(func(t *testing.T, seed int64, n uint16, ops []byte) {
		if len(ops) > 400 {
			ops = ops[:400]
		}
		size := int(n)%1200 + 1
		list := randomGroupedList(rand.New(rand.NewSource(seed)), size)
		driveSkipEquivalence(t, list, ops)
	})
}
