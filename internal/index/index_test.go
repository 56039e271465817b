package index

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/xmltree"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"TomTom GPS", []string{"tomtom", "gps"}},
		{"easy-to-read", []string{"easy", "to", "read"}},
		{"4.2", []string{"4", "2"}},
		{"  spaces   everywhere ", []string{"spaces", "everywhere"}},
		{"Go 730 (Tri-lingual) BOX", []string{"go", "730", "tri", "lingual", "box"}},
		{"---", nil},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTokenizeQueryDeduplicates(t *testing.T) {
	got := TokenizeQuery("gps GPS gps tomtom")
	want := []string{"gps", "tomtom"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TokenizeQuery = %v, want %v", got, want)
	}
}

const doc = `
<store>
  <product><name>TomTom GPS</name><price>199</price></product>
  <product><name>Garmin GPS</name><price>249</price></product>
  <product><name>Garmin Watch</name></product>
</store>`

func buildTestIndex(t *testing.T) *Index {
	t.Helper()
	root, err := xmltree.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	return Build(root)
}

func TestLookupPostings(t *testing.T) {
	idx := buildTestIndex(t)
	gps := idx.Lookup("gps")
	if len(gps) != 2 {
		t.Fatalf("gps postings = %d, want 2", len(gps))
	}
	// Document order.
	if gps[0].Compare(gps[1]) >= 0 {
		t.Fatalf("postings not in document order: %v", gps)
	}
	if idx.DocFreq("garmin") != 2 {
		t.Fatalf("garmin freq = %d", idx.DocFreq("garmin"))
	}
	if idx.DocFreq("zzz") != 0 {
		t.Fatal("absent term should have zero postings")
	}
}

func TestTagNameIndexed(t *testing.T) {
	idx := buildTestIndex(t)
	// "product" appears as a tag three times.
	if idx.DocFreq("product") != 3 {
		t.Fatalf("product (tag) freq = %d, want 3", idx.DocFreq("product"))
	}
	// "name" as tag.
	if idx.DocFreq("name") != 3 {
		t.Fatalf("name (tag) freq = %d, want 3", idx.DocFreq("name"))
	}
}

func TestAttributeValuesIndexed(t *testing.T) {
	root := xmltree.MustParseString(`<r><item color="deep blue"/></r>`)
	idx := Build(root)
	if idx.DocFreq("blue") != 1 {
		t.Fatalf("blue freq = %d, want 1", idx.DocFreq("blue"))
	}
}

func TestNoDuplicatePostingPerNode(t *testing.T) {
	root := xmltree.MustParseString(`<r><x>gps gps gps</x></r>`)
	idx := Build(root)
	if got := idx.DocFreq("gps"); got != 1 {
		t.Fatalf("repeated term posted %d times for one node, want 1", got)
	}
}

func TestQueryListsMissingTerm(t *testing.T) {
	idx := buildTestIndex(t)
	_, _, err := idx.QueryLists([]string{"gps", "unicorn"})
	var nm *NoMatchError
	if !errors.As(err, &nm) {
		t.Fatalf("err = %v, want NoMatchError", err)
	}
	if len(nm.Terms) != 1 || nm.Terms[0] != "unicorn" {
		t.Fatalf("missing terms = %v", nm.Terms)
	}
}

func TestQueryListsAllPresent(t *testing.T) {
	idx := buildTestIndex(t)
	lists, stats, err := idx.QueryLists([]string{"gps", "garmin"})
	if err != nil {
		t.Fatal(err)
	}
	if len(lists) != 2 || len(lists[0]) == 0 || len(lists[1]) == 0 {
		t.Fatalf("lists = %v", lists)
	}
	if len(stats.Lengths) != 2 || stats.Lengths[0] != len(lists[0]) || stats.Lengths[1] != len(lists[1]) {
		t.Fatalf("stats lengths = %v for lists %d/%d", stats.Lengths, len(lists[0]), len(lists[1]))
	}
	if stats.Min == 0 || stats.Skew < 1 {
		t.Fatalf("stats = %+v, want Min > 0 and Skew >= 1", stats)
	}
}

func TestVocabularySorted(t *testing.T) {
	idx := buildTestIndex(t)
	vocab := idx.Vocabulary()
	if len(vocab) == 0 {
		t.Fatal("empty vocabulary")
	}
	for i := 1; i < len(vocab); i++ {
		if vocab[i-1] >= vocab[i] {
			t.Fatalf("vocabulary not strictly sorted at %d: %q >= %q", i, vocab[i-1], vocab[i])
		}
	}
}

func TestStats(t *testing.T) {
	idx := buildTestIndex(t)
	s := idx.Stats()
	if s.Terms != len(idx.Vocabulary()) {
		t.Fatalf("stats terms = %d, vocab = %d", s.Terms, len(idx.Vocabulary()))
	}
	if s.Postings <= 0 {
		t.Fatal("no postings counted")
	}
}

// TestStatsIndexedElementsDistinct is the regression test for the
// Stats bug that reported total term occurrences as the element count.
func TestStatsIndexedElementsDistinct(t *testing.T) {
	idx := buildTestIndex(t)
	s := idx.Stats()
	// Every element in the fixture posts at least its tag name: one
	// <store>, three <product>s, three <name>s, two <price>s.
	if s.IndexedElements != 9 {
		t.Fatalf("IndexedElements = %d, want 9 distinct elements", s.IndexedElements)
	}
	// The old bug reported term occurrences, which here exceed the
	// element count (each <name> alone posts several terms).
	if s.IndexedElements >= s.Postings {
		t.Fatalf("IndexedElements %d should be below total postings %d", s.IndexedElements, s.Postings)
	}
}

// TestSaveLoadRoundTrip: the index's persisted form — the symbol
// table wire bytes plus the compact postings payload, as a snapshot
// stores them — reopens over the same tree with identical lists,
// vocabulary and statistics.
func TestSaveLoadRoundTrip(t *testing.T) {
	root := xmltree.MustParseString(doc)
	idx := Build(root)
	saved := NewSymbolTable()
	payload, err := EncodeCompact(idx, saved)
	if err != nil {
		t.Fatal(err)
	}
	st, err := DecodeSymbolTable(saved.AppendEncoded(nil))
	if err != nil {
		t.Fatal(err)
	}
	back, err := OpenCompact(root, st, payload)
	if err != nil {
		t.Fatal(err)
	}
	for _, term := range idx.Vocabulary() {
		a, b := idx.Lookup(term), back.Lookup(term)
		if len(a) != len(b) {
			t.Fatalf("term %q: %d vs %d postings", term, len(a), len(b))
		}
		for i := range a {
			if !a[i].Equal(b[i]) {
				t.Fatalf("term %q posting %d: %v vs %v", term, i, a[i], b[i])
			}
		}
	}
	if !reflect.DeepEqual(idx.Vocabulary(), back.Vocabulary()) {
		t.Fatal("vocabulary mismatch after round trip")
	}
	if back.Stats() != idx.Stats() {
		t.Fatalf("stats after round trip = %+v, want %+v", back.Stats(), idx.Stats())
	}
}

func TestLoadGarbage(t *testing.T) {
	garbage := []byte("not an index")
	if _, err := DecodeSymbolTable(garbage); err == nil {
		t.Fatal("DecodeSymbolTable of garbage succeeded")
	}
	if _, err := OpenCompact(nil, NewSymbolTable(), garbage); err == nil {
		t.Fatal("OpenCompact of garbage succeeded")
	}
}

func TestPostingsResolveToContainingNodes(t *testing.T) {
	root := xmltree.MustParseString(doc)
	idx := Build(root)
	for _, id := range idx.Lookup("tomtom") {
		n := root.NodeAt(id)
		if n == nil {
			t.Fatalf("posting %v resolves to nothing", id)
		}
		if n.Tag != "name" {
			t.Fatalf("tomtom posted on <%s>, want <name>", n.Tag)
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	root := xmltree.MustParseString(doc)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Build(root)
	}
}

func BenchmarkLookup(b *testing.B) {
	root := xmltree.MustParseString(doc)
	idx := Build(root)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = idx.Lookup("gps")
	}
}
