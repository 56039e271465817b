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

	co := dialLegs(t, fresh, 2)
	checkExecutor(t, "dist K=2", co, drained(co.SearchStream), queries, true)
}

// legCorpus is the corpus name test legs serve.
const legCorpus = "corpus"

// startLegs serves the tree fresh builds from k shard servers on
// httptest listeners, each bootstrapped as legCorpus, and returns their
// URLs in shard order.
func startLegs(t *testing.T, fresh func() *xmltree.Node, k int) []string {
	t.Helper()
	endpoints := make([]string, k)
	for g := range endpoints {
		sv, err := dist.NewServer(g, k)
		if err != nil {
			t.Fatal(err)
		}
		if err := sv.AddCorpus(legCorpus, fresh()); err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(sv)
		t.Cleanup(hs.Close)
		endpoints[g] = hs.URL
	}
	return endpoints
}

// dialLegs returns a coordinator over k fresh httptest legs.
func dialLegs(t *testing.T, fresh func() *xmltree.Node, k int) *dist.Coordinator {
	t.Helper()
	co, err := dist.Dial(startLegs(t, fresh, k), legCorpus, fresh(), dist.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return co
}

// TestLiveExecutorsMatchReferenceOnAdversarialDocs holds the live
// engine over one index, and a coordinator over two httptest legs, to
// the reference on the document classes the movie corpus lacks: a root
// with text of its own, a term only on the spine (the root and the
// <sec> wrapper), a duplicated query keyword, a term whose only posting
// sits in a removed entity, multi-byte tokens, a document of one node,
// terms that occur only in attribute values, empty elements, a wrapper
// tag that a write makes repeated, so the schema turns it into an
// entity, and a spine-rooted top result (seed33Doc, whose top "gamma
// alpha" result spans legs). Each executor is checked cold, after an
// add and a remove, and again after a compaction. A removal the
// coordinator refuses as spine-rooted is skipped there, and must leave
// its epoch unchanged.
func TestLiveExecutorsMatchReferenceOnAdversarialDocs(t *testing.T) {
	docs := []struct {
		name    string
		doc     string
		queries []string
		add     string // entity appended before the live check
		remove  int    // top-level ordinal removed after the add
	}{
		{
			name: "spine",
			doc: `<r>catalogtitle <sec>shelfnote <p><name>a</name><v>alpha beta café</v></p><p><name>b</name><v>beta gamma</v></p></sec>` +
				`<p><name>c</name><v>beta onlyhere</v></p><p><name>d</name><v>café beta beta</v></p><p><name>e</name><v>gamma 東京</v></p></r>`,
			queries: []string{
				"catalogtitle", "r", "r beta", "catalogtitle beta",
				"shelfnote", "shelfnote gamma", "sec beta",
				"beta beta gamma", "gamma GAMMA",
				"onlyhere", "onlyhere beta",
				"café", "café beta", "東京", "東京 gamma", "delta 東京",
				"beta", "p", "name",
			},
			add:    `<p><name>f</name><v>beta delta 東京</v></p>`,
			remove: 2, // <p> c, the only "onlyhere"
		},
		{
			// The root is the whole corpus; the added entity is removed
			// again, so the live state is one node plus a tombstone.
			name:    "single node",
			doc:     `<solo/>`,
			queries: []string{"solo", "solo solo", "added", "solo added", "other"},
			add:     `<p>solo added</p>`,
			remove:  0,
		},
		{
			name: "attributes only",
			doc: `<r><p id="x1" kind="gps"><name>a</name></p><p kind="radio"><name>b</name></p>` +
				`<q kind="gps" note="alpha beta"/><p><name>c</name><v note="beta"/></p></r>`,
			queries: []string{"gps", "radio", "x1", "alpha", "beta", "gps alpha", "x1 a", "gps radio", "beta c", "delta gps"},
			add:     `<q kind="gps" note="delta"/>`,
			remove:  1, // the only "radio"
		},
		{
			// <n0> is a singleton wrapper until the add repeats it: the
			// schema fold then turns it into an entity whose subtree
			// holds the whole original corpus, so matches inside lift to
			// it. Removing the trailing <item> keeps n0 repeated.
			name: "tag repeated by a write",
			doc: `<root><n0><w><item><leaf>alpha beta</leaf><leaf>gamma</leaf></item><misc>alpha gamma</misc>` +
				`<item><leaf>beta delta</leaf><leaf>delta</leaf></item><misc2>alpha delta</misc2></w></n0>` +
				`<item><leaf>gamma epsilon</leaf></item></root>`,
			queries: []string{"alpha", "gamma", "delta", "epsilon", "alpha gamma", "alpha delta", "beta epsilon", "n0", "item", "misc alpha"},
			add:     `<n0><leaf>epsilon</leaf></n0>`,
			remove:  1,
		},
		{
			name:    "empty elements",
			doc:     `<r><p/><p><name/><v></v></p><p><name>a</name><v/></p><e></e></r>`,
			queries: []string{"p", "name", "v", "e", "a", "name a", "v a", "p e", "e name", "v name"},
			add:     `<p><v/><e/></p>`,
			remove:  0,
		},
		{
			// The copy of internal/shard's seed33Doc: "gamma alpha" ranks
			// 1.2.0 first, an entity whose subtree the partition splits
			// across legs.
			name:    "spine-rooted top result",
			doc:     `<root>beta <n2><leaf>alpha gamma delta </leaf><n2><n0><leaf>beta beta gamma </leaf><leaf>beta </leaf></n0><n2><leaf>beta </leaf><leaf>alpha beta </leaf><leaf>gamma </leaf><leaf>gamma alpha beta </leaf></n2><n2><leaf>alpha </leaf><leaf>gamma delta </leaf><leaf>gamma </leaf></n2></n2><n0><n2><leaf>delta alpha alpha </leaf><leaf>delta alpha delta </leaf><leaf>gamma </leaf><leaf>beta beta beta </leaf></n2><n0><leaf>beta </leaf><leaf>gamma beta delta </leaf></n0></n0><leaf>gamma alpha </leaf></n2><leaf>gamma alpha </leaf></root>`,
			queries: []string{"gamma alpha", "alpha gamma", "beta", "delta alpha", "n2 gamma", "leaf beta delta", "root beta"},
			add:     `<leaf>gamma alpha alpha</leaf>`,
			remove:  2, // the trailing top-level <leaf>
		},
	}
	bases := map[string]func(fresh func() *xmltree.Node) liveExecutor{
		"mono":        func(fresh func() *xmltree.Node) liveExecutor { return update.Wrap(xseek.New(fresh())) },
		"coordinator": func(fresh func() *xmltree.Node) liveExecutor { return dialLegs(t, fresh, 2) },
	}
	for _, d := range docs {
		for base, mk := range bases {
			name := d.name + " " + base
			live := mk(func() *xmltree.Node { return xmltree.MustParseString(d.doc) })
			checkExecutor(t, name+" cold", live, drained(live.SearchStream), d.queries, true)
			if _, err := live.AddEntity(xmltree.MustParseString(d.add)); err != nil {
				t.Fatalf("%s: add: %v", name, err)
			}
			epoch := live.Epoch()
			if err := live.RemoveEntity(dewey.New(d.remove)); err != nil {
				if base != "coordinator" || !strings.Contains(err.Error(), "spine-rooted") {
					t.Fatalf("%s: remove: %v", name, err)
				}
				if got := live.Epoch(); got != epoch {
					t.Fatalf("%s: a refused spine removal moved the epoch %d -> %d", name, epoch, got)
				}
			}
			checkExecutor(t, name+" live", live, drained(live.SearchStream), d.queries, true)
			if err := live.Compact(); err != nil {
				t.Fatalf("%s: compact: %v", name, err)
			}
			checkExecutor(t, name+" compacted", live, drained(live.SearchStream), d.queries, true)
		}
	}
}

// liveExecutor is the write surface the in-process live engine and the
// coordinator share, beside their ranked one.
type liveExecutor interface {
	rankedExecutor
	SearchStream(query string) (xseek.Cursor, error)
	AddEntity(n *xmltree.Node) (dewey.ID, error)
	RemoveEntity(id dewey.ID) error
	Compact() error
	Epoch() uint64
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
