package reference

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/xmltree"
)

// randomLists draws k document-ordered, duplicate-free posting lists
// over a small ID space, the root included, so candidates nest, repeat
// and collapse onto the root.
func randomLists(r *rand.Rand, k int) []index.PostingList {
	out := make([]index.PostingList, k)
	for i := range out {
		seen := map[string]bool{}
		var l index.PostingList
		for j := 1 + r.Intn(8); j > 0; j-- {
			id := make(dewey.ID, r.Intn(4))
			for d := range id {
				id[d] = r.Intn(3)
			}
			if len(id) == 0 {
				id = nil // the root's ID as xmltree.Parse assigns it
			}
			if !seen[id.String()] {
				seen[id.String()] = true
				l = append(l, id)
			}
		}
		sort.Slice(l, func(a, b int) bool { return l[a].Compare(l[b]) < 0 })
		out[i] = l
	}
	return out
}

func strs(ids []dewey.ID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = id.String()
	}
	return out
}

// TestEagerMatchesNaive holds the two eager algorithms to the naive
// definition on random lists.
func TestEagerMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 1000; trial++ {
		ls := randomLists(r, 1+r.Intn(4))
		want := strs(Naive(ls))
		for name, got := range map[string][]dewey.ID{
			"IndexedLookupEager": IndexedLookupEager(ls),
			"ScanEager":          ScanEager(ls),
		} {
			if !reflect.DeepEqual(strs(got), want) {
				t.Fatalf("trial %d: %s = %v, Naive = %v (lists %v)", trial, name, strs(got), want, ls)
			}
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	one := index.PostingList{dewey.New(0)}
	for name, f := range map[string]func([]index.PostingList) []dewey.ID{
		"Naive": Naive, "IndexedLookupEager": IndexedLookupEager, "ScanEager": ScanEager,
	} {
		if got := f(nil); got != nil {
			t.Errorf("%s(no lists) = %v", name, got)
		}
		if got := f([]index.PostingList{one, nil}); got != nil {
			t.Errorf("%s(empty list) = %v", name, got)
		}
	}
}

// TestEntities: SLCAs under one entity merge onto the first match, an
// SLCA outside every entity stands for itself, output is in document
// order whatever the input order, and an unknown ID is an error.
func TestEntities(t *testing.T) {
	root := xmltree.MustParseString(`<r><p><a>x</a><b>y</b></p><p><a>z</a></p><c>w</c></r>`)
	// Every <p> is an entity; nothing else is.
	nearest := func(n *xmltree.Node) *xmltree.Node {
		for cur := n; cur != nil; cur = cur.Parent {
			if cur.Tag == "p" {
				return cur
			}
		}
		return nil
	}
	ids := []dewey.ID{dewey.New(2), dewey.New(0, 1), dewey.New(0, 0), dewey.New(1, 0)}
	hits, err := Entities(root, ids, nearest)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, h := range hits {
		got = append(got, h.Node.ID.String()+"="+h.Match.ID.String())
	}
	want := []string{"0=0.1", "1=1.0", "2=2"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Entities = %v, want %v", got, want)
	}
	if _, err := Entities(root, []dewey.ID{dewey.New(9)}, nearest); err == nil {
		t.Fatal("an ID outside the tree must be an error")
	}
}
