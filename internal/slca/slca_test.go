package slca

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/reference"
	"repro/internal/xmltree"
)

func ids(idStrs ...string) []dewey.ID {
	out := make([]dewey.ID, len(idStrs))
	for i, s := range idStrs {
		id, err := dewey.Parse(s)
		if err != nil {
			panic(err)
		}
		out[i] = id
	}
	return out
}

func lists(ls ...[]dewey.ID) []index.PostingList {
	out := make([]index.PostingList, len(ls))
	for i, l := range ls {
		out[i] = index.PostingList(l)
	}
	return out
}

func idStrings(in []dewey.ID) []string {
	out := make([]string, len(in))
	for i, id := range in {
		out[i] = id.String()
	}
	return out
}

func TestSLCASingleKeyword(t *testing.T) {
	// Matches at 0.1 and 0.1.2: only the deepest survives.
	got := Collect(Stream(lists(ids("0.1", "0.1.2", "2"))))
	want := []string{"0.1.2", "2"}
	if !reflect.DeepEqual(idStrings(got), want) {
		t.Fatalf("got %v, want %v", idStrings(got), want)
	}
}

func TestSLCATwoKeywordsSimple(t *testing.T) {
	// k1 at 0.0, k2 at 0.1 -> SLCA is 0.
	got := Collect(Stream(lists(ids("0.0"), ids("0.1"))))
	if !reflect.DeepEqual(idStrings(got), []string{"0"}) {
		t.Fatalf("got %v", idStrings(got))
	}
}

func TestSLCASmallestWins(t *testing.T) {
	// k1 at 0.0 and 0.1.0; k2 at 0.1.1.
	// LCA(0.1.0, 0.1.1) = 0.1 is smaller than LCA(0.0, 0.1.1) = 0.
	got := Collect(Stream(lists(ids("0.0", "0.1.0"), ids("0.1.1"))))
	if !reflect.DeepEqual(idStrings(got), []string{"0.1"}) {
		t.Fatalf("got %v, want [0.1]", idStrings(got))
	}
}

func TestSLCAMultipleResults(t *testing.T) {
	// Two independent products both matching both keywords.
	got := Collect(Stream(lists(ids("0.0.0", "0.1.0"), ids("0.0.1", "0.1.1"))))
	if !reflect.DeepEqual(idStrings(got), []string{"0.0", "0.1"}) {
		t.Fatalf("got %v", idStrings(got))
	}
}

func TestSLCAEmptyListMeansNoResult(t *testing.T) {
	if got := Collect(Stream(lists(ids("0.0"), nil))); got != nil {
		t.Fatalf("got %v, want nil", idStrings(got))
	}
	if got := Collect(Stream(nil)); got != nil {
		t.Fatalf("got %v for no lists", idStrings(got))
	}
}

func TestSLCASameNodeMatchesAll(t *testing.T) {
	// One node contains both keywords.
	got := Collect(Stream(lists(ids("0.2.1"), ids("0.2.1"))))
	if !reflect.DeepEqual(idStrings(got), []string{"0.2.1"}) {
		t.Fatalf("got %v", idStrings(got))
	}
}

func TestSLCAThreeKeywords(t *testing.T) {
	got := Collect(Stream(lists(
		ids("0.0.0", "1.0.0"),
		ids("0.0.1", "1.0.1"),
		ids("0.1", "1.0.2"),
	)))
	// Result 0: LCA(0.0.x, 0.1) = 0. Result 1: all under 1.0.
	// 1.0 is not an ancestor of 0, both kept.
	if !reflect.DeepEqual(idStrings(got), []string{"0", "1.0"}) {
		t.Fatalf("got %v", idStrings(got))
	}
}

func randomLists(r *rand.Rand, k int) []index.PostingList {
	out := make([]index.PostingList, k)
	for i := range out {
		n := 1 + r.Intn(8)
		seen := map[string]bool{}
		var l []dewey.ID
		for j := 0; j < n; j++ {
			depth := 1 + r.Intn(4)
			id := make(dewey.ID, depth)
			for d := range id {
				id[d] = r.Intn(3)
			}
			if !seen[id.String()] {
				seen[id.String()] = true
				l = append(l, id)
			}
		}
		pl := index.PostingList(l)
		out[i] = pl
		// sort in document order
		for a := 1; a < len(pl); a++ {
			for b := a; b > 0 && pl[b].Compare(pl[b-1]) < 0; b-- {
				pl[b], pl[b-1] = pl[b-1], pl[b]
			}
		}
	}
	return out
}

// TestPropEagerMatchesNaive cross-checks the galloping stream (Indexed
// Lookup Eager's discipline) against the reference oracle on random
// inputs.
func TestPropEagerMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		k := 1 + r.Intn(3)
		ls := randomLists(r, k)
		eager := Collect(IndexedLookupStream(ls))
		naive := reference.Naive(ls)
		if !reflect.DeepEqual(idStrings(eager), idStrings(naive)) {
			t.Fatalf("iteration %d: eager %v != naive %v (lists %v)",
				i, idStrings(eager), idStrings(naive), ls)
		}
	}
}

// TestPropSLCAInvariants checks the defining properties: every SLCA
// covers all keywords and no SLCA is an ancestor of another.
func TestPropSLCAInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for i := 0; i < 300; i++ {
		ls := randomLists(r, 1+r.Intn(3))
		res := Collect(IndexedLookupStream(ls))
		for ai, a := range res {
			for bi, b := range res {
				if ai != bi && a.IsAncestorOf(b) {
					t.Fatalf("SLCA %v is ancestor of SLCA %v", a, b)
				}
			}
			for li, l := range ls {
				covered := false
				for _, m := range l {
					if a.IsAncestorOrSelf(m) {
						covered = true
						break
					}
				}
				if !covered {
					t.Fatalf("SLCA %v does not cover keyword list %d", a, li)
				}
			}
		}
	}
}

func TestEndToEndOverRealTree(t *testing.T) {
	doc := `
<store>
  <product><name>TomTom GPS</name><rating>great</rating></product>
  <product><name>Garmin GPS</name><rating>ok</rating></product>
  <product><name>TomTom Watch</name></product>
</store>`
	root := xmltree.MustParseString(doc)
	idx := index.Build(root)
	ls, _, err := idx.QueryLists(index.TokenizeQuery("tomtom gps"))
	if err != nil {
		t.Fatal(err)
	}
	res := Collect(Stream(ls))
	// "tomtom gps" both occur in product 1's <name>; the only other
	// joint cover is <store> itself, which is an ancestor of that name
	// and therefore not smallest. Exactly one SLCA: the <name> node.
	if len(res) != 1 {
		t.Fatalf("got %d SLCAs: %v", len(res), idStrings(res))
	}
	n0 := root.NodeAt(res[0])
	if n0.Tag != "name" || n0.Value() != "TomTom GPS" {
		t.Fatalf("SLCA = <%s> %q", n0.Tag, n0.Value())
	}
}

func buildBenchLists(n int) []index.PostingList {
	r := rand.New(rand.NewSource(99))
	mk := func() index.PostingList {
		l := make([]dewey.ID, n)
		for i := range l {
			l[i] = dewey.New(r.Intn(50), r.Intn(20), r.Intn(10))
		}
		pl := index.PostingList(l)
		for a := 1; a < len(pl); a++ {
			for b := a; b > 0 && pl[b].Compare(pl[b-1]) < 0; b-- {
				pl[b], pl[b-1] = pl[b-1], pl[b]
			}
		}
		return pl
	}
	return []index.PostingList{mk(), mk()}
}

func BenchmarkIndexedLookupStream(b *testing.B) {
	ls := buildBenchLists(500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Collect(IndexedLookupStream(ls))
	}
}

func BenchmarkNaive(b *testing.B) {
	ls := buildBenchLists(500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = reference.Naive(ls)
	}
}
