package xsact

import (
	"fmt"
	"math"
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

// TestExecutorsMatchReferenceOnCorpus holds every executor to the
// test-only reference — Naive SLCA over a cold index of the executor's
// own tree, the eager entity map, and the eager TF-IDF ranking — on
// the movie corpus and its benchmark queries: monolithic xseek, a live
// engine after five adds and two removes, in-process shards at
// K ∈ {1, 2, 8}, and a coordinator over two httptest legs. The
// doc-order results must agree in node IDs, match IDs and labels, in
// order; RankResults and every ranked page (several windows, exact and
// approximate) must agree in entries and score bits, with exact totals
// (see checkRanked).
func TestExecutorsMatchReferenceOnCorpus(t *testing.T) {
	doc := xmltree.XMLString(dataset.Movies(dataset.MoviesConfig{Seed: 1, Movies: 2000}))
	fresh := func() *xmltree.Node { return xmltree.MustParseString(doc) }
	queries := dataset.MovieQueries()

	mono := xseek.New(fresh())
	checkExecutor(t, "xseek", mono, mono.Search, queries, true)

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
	checkExecutor(t, "update", live, drained(live.SearchStream), queries, true)

	for _, k := range []int{1, 2, 8} {
		sh := shard.Build(fresh(), k)
		checkExecutor(t, fmt.Sprintf("shard K=%d", k), sh, sh.Search, queries, true)
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
	co, err := dist.Dial(endpoints, corpus, fresh(), dist.Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkExecutor(t, "dist K=2", co, drained(co.SearchStream), queries, true)
}

// TestLiveExecutorsMatchReferenceOnAdversarialDocs holds the live
// engine, over a monolithic and a two-shard base, to the reference on
// the document classes the movie corpus lacks: a root with text of its
// own, a term only on the spine (the root and the <sec> wrapper), a
// duplicated query keyword, a term whose only posting sits in a removed
// entity, and multi-byte tokens. Each base takes an add and a remove
// before the queries run, and again after a compaction.
func TestLiveExecutorsMatchReferenceOnAdversarialDocs(t *testing.T) {
	const doc = `<r>catalogtitle <sec>shelfnote <p><name>a</name><v>alpha beta café</v></p><p><name>b</name><v>beta gamma</v></p></sec>` +
		`<p><name>c</name><v>beta onlyhere</v></p><p><name>d</name><v>café beta beta</v></p><p><name>e</name><v>gamma 東京</v></p></r>`
	queries := []string{
		"catalogtitle", "r", "r beta", "catalogtitle beta",
		"shelfnote", "shelfnote gamma", "sec beta",
		"beta beta gamma", "gamma GAMMA",
		"onlyhere", "onlyhere beta",
		"café", "café beta", "東京", "東京 gamma", "delta 東京",
		"beta", "p", "name",
	}
	bases := map[string]func(*xmltree.Node) *update.Engine{
		"mono": func(root *xmltree.Node) *update.Engine { return update.Wrap(xseek.New(root)) },
		"shard2": func(root *xmltree.Node) *update.Engine {
			sh := shard.Build(root, 2)
			return update.WrapParts(root, sh.Schema(), append([]*index.Index{sh.SpineIndex()}, sh.ShardIndexes()...))
		},
	}
	for name, mk := range bases {
		live := mk(xmltree.MustParseString(doc))
		if _, err := live.AddEntity(xmltree.MustParseString(`<p><name>f</name><v>beta delta 東京</v></p>`)); err != nil {
			t.Fatal(err)
		}
		if err := live.RemoveEntity(dewey.New(2)); err != nil { // <p> c, the only "onlyhere"
			t.Fatal(err)
		}
		checkExecutor(t, name+" live", live, drained(live.SearchStream), queries, false)
		if err := live.Compact(); err != nil {
			t.Fatal(err)
		}
		checkExecutor(t, name+" compacted", live, drained(live.SearchStream), queries, false)
	}
}

// rankedExecutor is the ranked surface every executor shares.
type rankedExecutor interface {
	Root() *xmltree.Node
	RankResults(results []*xseek.Result, query string) []*xseek.RankedResult
	SearchRankedPageWAND(query string, opts xseek.SearchOptions) ([]*xseek.RankedResult, int, xseek.WANDStats, error)
}

// checkExecutor holds one executor's doc-order search and ranked paths
// to the reference over a cold index of the executor's own tree. A
// query the reference cannot match must fail on the executor too. With
// mustMatch, a run in which no query matched anything fails: the
// comparison would prove nothing.
func checkExecutor(t *testing.T, name string, ex rankedExecutor, search func(string) ([]*xseek.Result, error), queries []string, mustMatch bool) {
	t.Helper()
	root := ex.Root()
	idx := index.Build(root)
	schema := xseek.InferSchema(root)
	totalNodes := root.CountNodes()
	matched := 0
	for _, q := range queries {
		got, err := search(q)
		lists, _, lerr := idx.QueryLists(index.TokenizeQuery(q))
		if lerr != nil {
			if err == nil {
				t.Fatalf("%s %q: reference fails with %v, executor does not", name, q, lerr)
			}
			if _, _, _, werr := ex.SearchRankedPageWAND(q, xseek.SearchOptions{Limit: 10}); werr == nil {
				t.Fatalf("%s %q: reference fails with %v, ranked page does not", name, q, lerr)
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
		checkRanked(t, name+" "+fmt.Sprintf("%q", q), ex, got, reference.Rank(idx, totalNodes, hits, q), q)
	}
	if mustMatch && matched == 0 {
		t.Fatalf("%s: no query matched anything; the comparison proves nothing", name)
	}
}

// rankedWindows are the pages checkRanked asks for: the first page, an
// inner window, a single entry, one past the end, and the whole
// ranking.
var rankedWindows = []xseek.SearchOptions{
	{Limit: 10}, {Offset: 3, Limit: 4}, {Limit: 1}, {Offset: 1 << 20, Limit: 5}, {},
}

// checkRanked holds an executor's eager ranking of its own doc-order
// results, and its ranked page for every window in both accuracies, to
// the reference ranking. Scores compare by their bits. Every total
// must be the exact result count, except that an approximate page of a
// single-index executor (monolithic or live) may report
// xseek.StreamTotalUnknown; a fan-out runs every leg exact.
func checkRanked(t *testing.T, ctx string, ex rankedExecutor, results []*xseek.Result, want []reference.Ranked, q string) {
	t.Helper()
	wantAll := make([]string, len(want))
	for i, r := range want {
		wantAll[i] = fmt.Sprintf("%s=%s=%s=%x", r.Node.ID, r.Match.ID, xseek.LabelFor(r.Node), math.Float64bits(r.Score))
	}
	if got := rankedKey(ex.RankResults(results, q)); got != strings.Join(wantAll, ";") {
		t.Fatalf("%s: RankResults\n got %.300s\nwant %.300s", ctx, got, strings.Join(wantAll, ";"))
	}
	_, fanout := ex.(interface{ LegCount() int })
	for _, opts := range rankedWindows {
		lo, hi := opts.Window(len(want))
		wantPage := strings.Join(wantAll[lo:hi], ";")
		for _, acc := range []xseek.Accuracy{xseek.AccuracyExact, xseek.AccuracyApprox} {
			opts.Accuracy = acc
			page, total, _, err := ex.SearchRankedPageWAND(q, opts)
			if err != nil {
				t.Fatalf("%s %+v: %v", ctx, opts, err)
			}
			if got := rankedKey(page); got != wantPage {
				t.Fatalf("%s %+v: page\n got %.300s\nwant %.300s", ctx, opts, got, wantPage)
			}
			if total != len(want) && (acc == xseek.AccuracyExact || fanout || total != xseek.StreamTotalUnknown) {
				t.Fatalf("%s %+v: total %d, want %d", ctx, opts, total, len(want))
			}
		}
	}
}

func rankedKey(rs []*xseek.RankedResult) string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = fmt.Sprintf("%s=%s=%s=%x", r.Node.ID, r.Match.ID, r.Label, math.Float64bits(r.Score))
	}
	return strings.Join(parts, ";")
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
