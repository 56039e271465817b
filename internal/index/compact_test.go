package index

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dewey"
)

// compactRoundtrip encodes idx against a fresh table and reopens it.
// With eager set, every list is decoded into the heap right away, so
// callers can compare the lazy block path against the resident one.
func compactRoundtrip(t *testing.T, idx *Index, eager bool) *Index {
	t.Helper()
	st := NewSymbolTable()
	payload, err := EncodeCompact(idx, st)
	if err != nil {
		t.Fatalf("EncodeCompact: %v", err)
	}
	out, err := OpenCompact(idx.Root(), st, payload)
	if err != nil {
		t.Fatalf("OpenCompact: %v", err)
	}
	if eager {
		out.compact.each(func(id uint32, _ int) { out.compact.materialize(id) })
	}
	return out
}

// TestCompactRoundtrip checks that every list survives the
// encode/open/materialize cycle bit for bit, lazily and eagerly.
func TestCompactRoundtrip(t *testing.T) {
	root := dataset.Movies(dataset.MoviesConfig{Seed: 3, Movies: 150})
	idx := Build(root)
	for _, eager := range []bool{false, true} {
		got := compactRoundtrip(t, idx, eager)
		if g, w := got.Stats(), idx.Stats(); g != w {
			t.Fatalf("eager=%v: Stats = %+v, want %+v", eager, g, w)
		}
		for _, term := range idx.Vocabulary() {
			want := idx.Lookup(term)
			if df := got.DocFreq(term); df != len(want) {
				t.Fatalf("eager=%v: DocFreq(%q) = %d, want %d", eager, term, df, len(want))
			}
			gl := got.Lookup(term)
			if len(gl) != len(want) {
				t.Fatalf("eager=%v: Lookup(%q) has %d postings, want %d", eager, term, len(gl), len(want))
			}
			for i := range want {
				if !gl[i].Equal(want[i]) {
					t.Fatalf("eager=%v: %q posting %d = %v, want %v", eager, term, i, gl[i], want[i])
				}
			}
		}
		if g, w := got.Vocabulary(), idx.Vocabulary(); len(g) != len(w) {
			t.Fatalf("eager=%v: vocabulary %d terms, want %d", eager, len(g), len(w))
		}
	}
}

// TestCompactBlockIterEquivalence drives the lazily-decoding block
// cursor and a plain materialized cursor through identical random
// monotone Seek/PredOf/Next sequences over long (ladder-bearing) and
// short lists.
func TestCompactBlockIterEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 3, compactBlock, compactBlock + 1, 5 * compactBlock, skipMinLen + 700} {
		list := make(PostingList, 0, n)
		cur := 0
		for len(list) < n {
			cur += 1 + r.Intn(5)
			list = append(list, dewey.New(0, cur, r.Intn(3)))
		}
		idx := newIndex(nil, nil)
		idx.postings[idx.intern("t")] = list
		idx.ensureSorted()

		cidx := compactRoundtrip(t, idx, false)
		for trial := 0; trial < 20; trial++ {
			a := cidx.TermIter("t")
			b := ListIter(list)
			if _, isBlock := a.(*blockIter); !isBlock {
				t.Fatalf("n=%d: expected a blockIter before materialization, got %T", n, a)
			}
			tgt := 0
			for i := 0; i < 60; i++ {
				tgt += r.Intn(cur/30 + 2)
				id := dewey.New(0, tgt, r.Intn(3))
				switch r.Intn(3) {
				case 0:
					av, aok := a.Seek(id)
					bv, bok := b.Seek(id)
					if aok != bok || (aok && !av.Equal(bv)) {
						t.Fatalf("n=%d: Seek(%v): block %v/%v, slice %v/%v", n, id, av, aok, bv, bok)
					}
				case 1:
					av, aok := a.PredOf(id)
					bv, bok := b.PredOf(id)
					if aok != bok || (aok && !av.Equal(bv)) {
						t.Fatalf("n=%d: PredOf(%v): block %v/%v, slice %v/%v", n, id, av, aok, bv, bok)
					}
				default:
					av, aok := a.Next()
					bv, bok := b.Next()
					if aok != bok || (aok && !av.Equal(bv)) {
						t.Fatalf("n=%d: Next(): block %v/%v, slice %v/%v", n, av, aok, bv, bok)
					}
				}
			}
		}

		// Full drain equals the source list.
		drained := CollectIter(cidx.TermIter("t"))
		if len(drained) != len(list) {
			t.Fatalf("n=%d: drained %d postings, want %d", n, len(drained), len(list))
		}
		for i := range list {
			if !drained[i].Equal(list[i]) {
				t.Fatalf("n=%d: drained[%d] = %v, want %v", n, i, drained[i], list[i])
			}
		}
	}
}

// TestCompactResidency checks the lazy/materialize residency
// accounting that feeds the engine's resident_blocks metric.
func TestCompactResidency(t *testing.T) {
	root := dataset.Movies(dataset.MoviesConfig{Seed: 5, Movies: 60})
	idx := Build(root)
	cidx := compactRoundtrip(t, idx, false)

	ms := cidx.MemStats()
	if ms.DataBytes == 0 || ms.ResidentLists != 0 || ms.ResidentBlocks != 0 {
		t.Fatalf("fresh compact index: MemStats = %+v, want data>0 and nothing resident", ms)
	}
	// Cursoring a list must not materialize it...
	it := cidx.TermIter("movie")
	it.Next()
	if ms = cidx.MemStats(); ms.ResidentLists != 0 {
		t.Fatalf("after TermIter: %d resident lists, want 0", ms.ResidentLists)
	}
	// ...but Lookup does.
	if l := cidx.Lookup("movie"); len(l) == 0 {
		t.Fatal("Lookup(movie) empty")
	}
	if ms = cidx.MemStats(); ms.ResidentLists != 1 || ms.ResidentBlocks == 0 {
		t.Fatalf("after Lookup: MemStats = %+v, want exactly one resident list", ms)
	}

	// A built (non-compact) index reports everything resident.
	bms := idx.MemStats()
	if bms.DataBytes != 0 || bms.ResidentLists == 0 {
		t.Fatalf("built index: MemStats = %+v", bms)
	}
}

// TestCompactSkipBlocks checks the ladder accounting matches the
// materialized contract: count/skipInterval entries once a list is
// long enough, whether or not it has been decoded.
func TestCompactSkipBlocks(t *testing.T) {
	n := skipMinLen + 500
	list := make(PostingList, n)
	for i := range list {
		list[i] = dewey.New(0, i, 0)
	}
	idx := newIndex(nil, nil)
	idx.postings[idx.intern("t")] = list
	idx.ensureSorted()

	cidx := compactRoundtrip(t, idx, false)
	want := n / skipInterval
	if got := cidx.SkipBlocks("t"); got != want {
		t.Fatalf("lazy SkipBlocks = %d, want %d", got, want)
	}
	cidx.Lookup("t") // materialize
	if got := cidx.SkipBlocks("t"); got != want {
		t.Fatalf("resident SkipBlocks = %d, want %d", got, want)
	}
	// The resident ladder must obey the sliceIter contract.
	cp := cidx.compact
	ladder := cp.skips[mustID(t, cidx, "t")]
	lst := cp.resident[mustID(t, cidx, "t")]
	for b, e := range ladder {
		if !e.Equal(lst[(b+1)*skipInterval-1]) {
			t.Fatalf("ladder[%d] = %v, want %v", b, e, lst[(b+1)*skipInterval-1])
		}
	}
	if !sort.SliceIsSorted(lst, func(i, j int) bool { return lst[i].Compare(lst[j]) < 0 }) {
		t.Fatal("materialized list out of order")
	}
}

func mustID(t *testing.T, idx *Index, term string) uint32 {
	t.Helper()
	id, ok := idx.TermID(term)
	if !ok {
		t.Fatalf("term %q not interned", term)
	}
	return id
}

// TestSymbolTableCodec round-trips a table and rejects corruption.
func TestSymbolTableCodec(t *testing.T) {
	st := NewSymbolTable()
	words := []string{"alpha", "beta", "", "gamma", "alpha-2"}
	for _, w := range words {
		st.Intern(w)
	}
	enc := st.AppendEncoded(nil)
	dec, err := DecodeSymbolTable(enc)
	if err != nil {
		t.Fatalf("DecodeSymbolTable: %v", err)
	}
	if dec.Len() != st.Len() {
		t.Fatalf("decoded %d symbols, want %d", dec.Len(), st.Len())
	}
	for i, w := range words {
		if id, ok := dec.ID(w); !ok || id != uint32(i) {
			t.Fatalf("decoded ID(%q) = %d/%v, want %d", w, id, ok, i)
		}
		if dec.Name(uint32(i)) != w {
			t.Fatalf("decoded Name(%d) = %q, want %q", i, dec.Name(uint32(i)), w)
		}
	}
	if _, err := DecodeSymbolTable(enc[:len(enc)-2]); err == nil {
		t.Fatal("truncated table decoded without error")
	}
	if _, err := DecodeSymbolTable(append(append([]byte(nil), enc...), 0xFF)); err == nil {
		t.Fatal("trailing garbage decoded without error")
	}
}
