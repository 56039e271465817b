package shard

import (
	"testing"

	"repro/internal/index"
	"repro/internal/reference"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// referenceSearch answers a query over the whole document with the
// test-only reference implementations: Naive SLCA over a monolithic
// index's lists, then the eager entity map under the document schema.
func referenceSearch(t testing.TB, root *xmltree.Node, idx *index.Index, schema *xseek.Schema, query string) []*xseek.Result {
	t.Helper()
	lists, _, err := idx.QueryLists(index.TokenizeQuery(query))
	if err != nil {
		t.Fatalf("reference %q: %v", query, err)
	}
	hits, err := reference.Entities(root, reference.Naive(lists), schema.NearestEntity)
	if err != nil {
		t.Fatalf("reference %q: %v", query, err)
	}
	var out []*xseek.Result
	for _, h := range hits {
		out = append(out, &xseek.Result{Node: h.Node, Match: h.Match, Label: xseek.LabelFor(h.Node)})
	}
	return out
}

// TestRootSLCATwoShards: with the root on the spine of a two-shard
// fan-out, a root SLCA comes back from Search, the cursor and the
// ranked page in both accuracies, each equal to the reference.
func TestRootSLCATwoShards(t *testing.T) {
	root := xmltree.MustParseString(`<r>catalogtitle <p><name>a</name><v>alpha beta</v></p><p><name>b</name><v>beta gamma</v></p></r>`)
	sharded := Build(root, 2)
	if sharded.LegCount() != 2 {
		t.Fatalf("want 2 shards, got %d", sharded.LegCount())
	}
	mono := xseek.New(root)
	for _, q := range []string{"catalogtitle", "r", "r beta"} {
		want := referenceSearch(t, root, mono.Index(), mono.Schema(), q)
		if len(want) != 1 || want[0].Node != root {
			t.Fatalf("%q: reference returned %s, want the root", q, resultKey(want))
		}
		got, err := sharded.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if resultKey(got) != resultKey(want) {
			t.Fatalf("%q: Search %s, want %s", q, resultKey(got), resultKey(want))
		}
		c, err := sharded.SearchStream(q)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := xseek.Drain(c)
		if err != nil {
			t.Fatal(err)
		}
		if resultKey(streamed) != resultKey(want) {
			t.Fatalf("%q: SearchStream %s, want %s", q, resultKey(streamed), resultKey(want))
		}
		wantPage := rankedKey(mono.RankPage(want, q, xseek.SearchOptions{Limit: 10}))
		for _, acc := range []xseek.Accuracy{xseek.AccuracyExact, xseek.AccuracyApprox} {
			page, total, _, err := sharded.SearchRankedPageWAND(q, xseek.SearchOptions{Limit: 10, Accuracy: acc})
			if err != nil {
				t.Fatal(err)
			}
			if rankedKey(page) != wantPage {
				t.Fatalf("%q accuracy %v: WAND page %s, want %s", q, acc, rankedKey(page), wantPage)
			}
			if total != len(want) {
				t.Fatalf("%q accuracy %v: WAND total %d, want %d", q, acc, total, len(want))
			}
		}
	}
}
