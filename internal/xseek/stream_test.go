package xseek

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

// randomNestedDoc builds a corpus with entities at several nesting
// depths (shelf* > book* > note*) and a small keyword vocabulary, so
// streamed entity mapping has to handle nested results, duplicate
// SLCA→entity hits, and out-of-order ancestor entities.
func randomNestedDoc(r *rand.Rand, shelves int) string {
	vocab := []string{"alpha", "beta", "gamma", "delta", "omega"}
	pick := func() string { return vocab[r.Intn(len(vocab))] }
	var b strings.Builder
	b.WriteString("<lib>")
	for s := 0; s < shelves; s++ {
		b.WriteString("<shelf>")
		fmt.Fprintf(&b, "<code>%s</code>", pick())
		for k := 0; k < 1+r.Intn(3); k++ {
			b.WriteString("<book>")
			if r.Intn(2) == 0 {
				fmt.Fprintf(&b, "<name>B%d-%d %s</name>", s, k, pick())
			}
			for n := 0; n < r.Intn(3); n++ {
				fmt.Fprintf(&b, "<note>%s %s</note>", pick(), pick())
			}
			b.WriteString("</book>")
		}
		b.WriteString("</shelf>")
	}
	b.WriteString("</lib>")
	return b.String()
}

var streamQueries = []string{
	"alpha", "beta", "omega",
	"alpha beta", "gamma delta", "alpha omega",
	"alpha beta gamma",
}

// TestStreamEqualsExecute: draining the doc-order result stream must
// reproduce Execute exactly — same entities, same match nodes, same
// labels, same order — across random nested corpora and queries.
func TestStreamEqualsExecute(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		e := New(xmltree.MustParseString(randomNestedDoc(r, 1+r.Intn(6))))
		for _, query := range streamQueries {
			q, err := e.Compile(query)
			if err != nil {
				continue // vocabulary miss on a tiny corpus
			}
			want, err := q.Execute()
			if err != nil {
				t.Fatal(err)
			}
			rs, err := q.Stream()
			if err != nil {
				t.Fatal(err)
			}
			var got []*Result
			for {
				res, ok := rs.Next()
				if !ok {
					break
				}
				got = append(got, res)
			}
			if err := rs.Err(); err != nil {
				t.Fatal(err)
			}
			compareResults(t, got, want, fmt.Sprintf("trial %d query %q", trial, query))
		}
	}
}

// TestStreamPrefixInvariance: the first k pulls of the stream equal
// the first k results of Execute for every k — the property paging
// relies on.
func TestStreamPrefixInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for trial := 0; trial < 20; trial++ {
		e := New(xmltree.MustParseString(randomNestedDoc(r, 2+r.Intn(5))))
		for _, query := range streamQueries {
			q, err := e.Compile(query)
			if err != nil {
				continue
			}
			want, err := q.Execute()
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 2, 5} {
				if k > len(want) {
					k = len(want)
				}
				rs, err := q.Stream()
				if err != nil {
					t.Fatal(err)
				}
				var got []*Result
				for i := 0; i < k; i++ {
					res, ok := rs.Next()
					if !ok {
						break
					}
					got = append(got, res)
				}
				compareResults(t, got, want[:k], fmt.Sprintf("trial %d query %q prefix %d", trial, query, k))
			}
		}
	}
}

// rankUnpruned runs the compiled query through the ranked consumer
// without bound metadata — the path a legacy snapshot (no block
// maxima) takes.
func rankUnpruned(q *Query, opts SearchOptions) ([]*RankedResult, int, WANDStats, error) {
	it, err := q.SLCAIter()
	if err != nil {
		return nil, 0, WANDStats{}, err
	}
	es := NewEntityStream(it, q.eng.root, q.eng.schema)
	return ConsumeRankedWAND(es, opts, q.eng.StreamScorer(q.Terms), nil, nil)
}

// TestRankStreamEqualsEagerRankedPage: the unpruned ranked stream must
// be bit-identical to the eager Search + RankPage pipeline — scores,
// order, labels, window clamping, and totals — for every paging shape,
// and must report that it did not prune.
func TestRankStreamEqualsEagerRankedPage(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	optsGrid := []SearchOptions{
		{},
		{Limit: 1},
		{Limit: 3},
		{Limit: 3, Offset: 2},
		{Limit: 100},
		{Offset: 4},
		{Limit: 2, Offset: 999},
		{Limit: -1, Offset: -5},
	}
	for trial := 0; trial < 25; trial++ {
		e := New(xmltree.MustParseString(randomNestedDoc(r, 2+r.Intn(6))))
		for _, query := range streamQueries {
			q, err := e.Compile(query)
			if err != nil {
				continue // vocabulary miss on a tiny corpus
			}
			for _, opts := range optsGrid {
				ctx := fmt.Sprintf("trial %d query %q opts %+v", trial, query, opts)
				want, wantTotal, err := eagerRankedPage(e, query, opts)
				if err != nil {
					t.Fatalf("%s: eager: %v", ctx, err)
				}
				got, gotTotal, st, err := rankUnpruned(q, opts)
				if err != nil {
					t.Fatalf("%s: stream: %v", ctx, err)
				}
				if gotTotal != wantTotal {
					t.Fatalf("%s: total %d want %d", ctx, gotTotal, wantTotal)
				}
				requireSamePages(t, ctx, got, want)
				if st != (WANDStats{}) {
					t.Fatalf("%s: unpruned consumer reported %+v", ctx, st)
				}
			}
		}
	}
}

// TestStreamErrorOnUnknownAlgorithm mirrors Execute's override
// contract on the lazy path.
func TestStreamErrorOnUnknownAlgorithm(t *testing.T) {
	e := New(xmltree.MustParseString(pagedDoc(4)))
	q, err := e.Compile("gps")
	if err != nil {
		t.Fatal(err)
	}
	q.Alg = "bogus"
	if _, err := q.Stream(); err == nil {
		t.Fatal("unknown algorithm must fail the stream")
	}
	if _, _, _, err := q.RankWAND(SearchOptions{Limit: 1}, nil); err == nil {
		t.Fatal("unknown algorithm must fail the ranked stream")
	}
}

func compareResults(t *testing.T, got, want []*Result, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d (got %v want %v)", ctx, len(got), len(want), labels(got), labels(want))
	}
	for i := range want {
		if got[i].Node != want[i].Node {
			t.Fatalf("%s: result %d entity %s, want %s", ctx, i, got[i].Node.ID, want[i].Node.ID)
		}
		if got[i].Match != want[i].Match {
			t.Fatalf("%s: result %d match %s, want %s", ctx, i, got[i].Match.ID, want[i].Match.ID)
		}
		if got[i].Label != want[i].Label {
			t.Fatalf("%s: result %d label %q, want %q", ctx, i, got[i].Label, want[i].Label)
		}
	}
}

func labels(rs []*Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Label
	}
	return out
}
