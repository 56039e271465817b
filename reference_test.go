package xsact

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dewey"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/reference"
	"repro/internal/shard"
	"repro/internal/update"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// TestExecutorsMatchReferenceOnCorpus holds every executor's doc-order
// Search to the test-only reference — Naive SLCA over a cold index of
// the executor's own tree, then the eager entity map — on the movie
// corpus and its benchmark queries: monolithic xseek, a live engine
// after five adds and two removes, in-process shards at K ∈ {1, 2, 8},
// and a coordinator over two httptest legs. Node IDs, match IDs and
// labels must agree, in order.
func TestExecutorsMatchReferenceOnCorpus(t *testing.T) {
	doc := xmltree.XMLString(dataset.Movies(dataset.MoviesConfig{Seed: 1, Movies: 2000}))
	fresh := func() *xmltree.Node { return xmltree.MustParseString(doc) }
	queries := dataset.MovieQueries()

	check := func(name string, root *xmltree.Node, search func(string) ([]*xseek.Result, error)) {
		t.Helper()
		idx := index.Build(root)
		schema := xseek.InferSchema(root)
		matched := 0
		defer func() {
			if matched == 0 {
				t.Fatalf("%s: no query matched anything; the comparison proves nothing", name)
			}
		}()
		for _, q := range queries {
			got, err := search(q)
			lists, _, lerr := idx.QueryLists(index.TokenizeQuery(q))
			if lerr != nil {
				if err == nil {
					t.Fatalf("%s %q: reference fails with %v, executor does not", name, q, lerr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s %q: %v", name, q, err)
			}
			hits, err := reference.Entities(root, reference.Naive(lists), schema.NearestEntity)
			if err != nil {
				t.Fatalf("%s %q: reference: %v", name, q, err)
			}
			matched += len(hits)
			want := make([]string, len(hits))
			for i, h := range hits {
				want[i] = h.Node.ID.String() + "=" + h.Match.ID.String() + "=" + xseek.LabelFor(h.Node)
			}
			if g, w := hitKey(got), strings.Join(want, ";"); g != w {
				t.Fatalf("%s %q: %d results differ from the reference's %d:\n got %.300s\nwant %.300s", name, q, len(got), len(hits), g, w)
			}
		}
	}

	mono := xseek.New(fresh())
	check("xseek", mono.Root(), mono.Search)

	live := update.Wrap(xseek.New(fresh()))
	movies := fresh().ChildElements()
	for i := 0; i < 5; i++ {
		if _, err := live.AddEntity(xmltree.MustParseString(xmltree.XMLString(movies[i]))); err != nil {
			t.Fatal(err)
		}
	}
	for _, ord := range []int{1, len(movies) + 2} { // one base movie, one added
		if err := live.RemoveEntity(dewey.New(ord)); err != nil {
			t.Fatal(err)
		}
	}
	check("update", live.Root(), drained(live.SearchStream))

	for _, k := range []int{1, 2, 8} {
		root := fresh()
		check(fmt.Sprintf("shard K=%d", k), root, shard.Build(root, k).Search)
	}

	const corpus = "movies"
	endpoints := make([]string, 2)
	for g := range endpoints {
		sv, err := dist.NewServer(g, len(endpoints))
		if err != nil {
			t.Fatal(err)
		}
		if err := sv.AddCorpus(corpus, fresh()); err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(sv)
		t.Cleanup(hs.Close)
		endpoints[g] = hs.URL
	}
	root := fresh()
	co, err := dist.Dial(endpoints, corpus, root, dist.Config{})
	if err != nil {
		t.Fatal(err)
	}
	check("dist K=2", root, drained(co.SearchStream))
}

// drained turns an executor's doc-order cursor into its search: the
// drained cursor is the result list.
func drained(stream func(string) (xseek.Cursor, error)) func(string) ([]*xseek.Result, error) {
	return func(q string) ([]*xseek.Result, error) {
		c, err := stream(q)
		if err != nil {
			return nil, err
		}
		return xseek.Drain(c)
	}
}

func hitKey(rs []*xseek.Result) string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = r.Node.ID.String() + "=" + r.Match.ID.String() + "=" + r.Label
	}
	return strings.Join(parts, ";")
}
