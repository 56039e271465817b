package slca

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/reference"
	"repro/internal/xmltree"
)

func TestPlanPicksByskew(t *testing.T) {
	cases := []struct {
		lengths []int
		want    Algorithm
	}{
		{[]int{100, 100}, AlgScanEager},                                 // uniform
		{[]int{100, 120, 90}, AlgScanEager},                             // near-uniform
		{[]int{10, 10 * int(DefaultSkewThreshold)}, AlgIndexedLookup},   // at threshold
		{[]int{5, 100000}, AlgIndexedLookup},                            // rare + common
		{[]int{0, 100}, AlgScanEager},                                   // empty list: skew 0, choice moot
		{[]int{7, 7*int(DefaultSkewThreshold) - 1}, AlgScanEager},       // just under threshold
		{[]int{3, 50, 3 * int(DefaultSkewThreshold)}, AlgIndexedLookup}, // max/min drives it
	}
	for _, c := range cases {
		lists := make([]index.PostingList, len(c.lengths))
		for i, n := range c.lengths {
			lists[i] = make(index.PostingList, n)
			for j := range lists[i] {
				lists[i][j] = dewey.New(0, j)
			}
		}
		if got := Plan(index.StatsOf(lists)); got != c.want {
			t.Errorf("Plan(%v) = %s, want %s", c.lengths, got, c.want)
		}
	}
}

// randomDoc builds a random XML corpus over a small vocabulary:
// nested container elements of random fanout whose leaves carry 1-3
// random terms. Structure and content both vary tree to tree (fixed
// seed), exercising nesting depths the hand-written cases miss.
func randomDoc(r *rand.Rand, vocab []string) string {
	var b strings.Builder
	var emit func(depth int)
	emit = func(depth int) {
		if depth >= 4 || r.Intn(3) == 0 {
			b.WriteString("<leaf>")
			for i := r.Intn(3) + 1; i > 0; i-- {
				b.WriteString(vocab[r.Intn(len(vocab))])
				b.WriteString(" ")
			}
			b.WriteString("</leaf>")
			return
		}
		d := r.Intn(3)
		fmt.Fprintf(&b, "<n%d>", d)
		for i := r.Intn(4) + 1; i > 0; i-- {
			emit(depth + 1)
		}
		fmt.Fprintf(&b, "</n%d>", d)
	}
	b.WriteString("<root>")
	for i := r.Intn(6) + 2; i > 0; i-- {
		emit(1)
	}
	b.WriteString("</root>")
	return b.String()
}

// TestAlgorithmsAgreeOnRandomTrees is the cross-algorithm property
// test: on randomized corpora and queries, both seek disciplines and
// the planned Stream must produce exactly the reference Naive SLCA
// set.
func TestAlgorithmsAgreeOnRandomTrees(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	trees := 40
	queriesPerTree := 12
	for ti := 0; ti < trees; ti++ {
		doc := randomDoc(r, vocab)
		idx := index.Build(xmltree.MustParseString(doc))
		for qi := 0; qi < queriesPerTree; qi++ {
			k := r.Intn(3) + 1
			terms := make([]string, k)
			for i := range terms {
				terms[i] = vocab[r.Intn(len(vocab))]
			}
			lists, _, _ := idx.QueryLists(terms) // missing terms fine: every route returns nil
			oracle := idKey(reference.Naive(lists))
			for name, it := range map[string]Iterator{
				"IndexedLookupStream": IndexedLookupStream(lists),
				"ScanStream":          ScanStream(lists),
				"Stream":              Stream(lists),
			} {
				if got := idKey(Collect(it)); got != oracle {
					t.Fatalf("tree %d query %v: %s = %q, oracle = %q\ndoc: %s",
						ti, terms, name, got, oracle, doc)
				}
			}
		}
	}
}

func idKey(ids []dewey.ID) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = id.String()
	}
	return strings.Join(parts, ";")
}
