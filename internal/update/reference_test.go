package update

import (
	"testing"

	"repro/internal/index"
	"repro/internal/reference"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// referenceSearch answers a query over the live snapshot with the
// test-only reference implementations: Naive SLCA over the materialized
// composite lists (base ⊕ delta − tombstones), then the eager entity
// map under the live schema. ok is false when a keyword is absent.
func referenceSearch(t testing.TB, live *Engine, query string) (results []*xseek.Result, ok bool) {
	t.Helper()
	s := live.view()
	terms := index.TokenizeQuery(query)
	lists := make([]index.PostingList, len(terms))
	for i, term := range terms {
		if s.df.get(term) == 0 {
			return nil, false
		}
		lists[i] = s.List(term)
	}
	hits, err := reference.Entities(s.root, reference.Naive(lists), s.schema.NearestEntity)
	if err != nil {
		t.Fatalf("reference %q: %v", query, err)
	}
	for _, h := range hits {
		results = append(results, &xseek.Result{Node: h.Node, Match: h.Match, Label: xseek.LabelFor(h.Node)})
	}
	return results, true
}

// TestRootSLCAAfterLiveWrite: after a live add and remove, on a
// monolithic and a two-shard base, a root SLCA still comes back from
// the drained cursor and the ranked page in both accuracies, each
// equal to the reference over the live composite lists.
func TestRootSLCAAfterLiveWrite(t *testing.T) {
	const doc = `<r>catalogtitle <p><name>a</name><v>alpha beta</v></p><p><name>b</name><v>beta gamma</v></p><p><name>c</name><v>beta</v></p></r>`
	bases := map[string]func(*xmltree.Node) *Engine{
		"mono":    func(root *xmltree.Node) *Engine { return Wrap(xseek.New(root)) },
		"shards2": func(root *xmltree.Node) *Engine { return wrapShards(root, 2) },
	}
	for name, mk := range bases {
		live := mk(xmltree.MustParseString(doc))
		if _, err := live.AddEntity(xmltree.MustParseString(`<p><name>d</name><v>beta delta</v></p>`)); err != nil {
			t.Fatal(err)
		}
		if err := live.RemoveEntity([]int{1}); err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{"catalogtitle", "r", "r beta"} {
			ctx := name + " " + q
			want, ok := referenceSearch(t, live, q)
			if !ok || len(want) != 1 || want[0].Node != live.Root() {
				t.Fatalf("%s: reference returned %d results, want the root", ctx, len(want))
			}
			streamed, err := searchOf(live, q)
			if err != nil {
				t.Fatal(err)
			}
			if canonical(streamed) != canonical(want) {
				t.Fatalf("%s: SearchStream\n%s\nwant\n%s", ctx, canonical(streamed), canonical(want))
			}
			wantPage := canonicalRanked(rankWindow(live.RankResults(want, q), xseek.SearchOptions{Limit: 10}))
			for _, acc := range []xseek.Accuracy{xseek.AccuracyExact, xseek.AccuracyApprox} {
				page, _, _, err := live.SearchRankedPageWAND(q, xseek.SearchOptions{Limit: 10, Accuracy: acc})
				if err != nil {
					t.Fatal(err)
				}
				if got := canonicalRanked(page); got != wantPage {
					t.Fatalf("%s accuracy %v: WAND page\n%s\nwant\n%s", ctx, acc, got, wantPage)
				}
			}
		}
	}
}
