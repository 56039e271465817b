package xseek

import (
	"testing"

	"repro/internal/reference"
	"repro/internal/xmltree"
)

// referenceSearch answers a query with the test-only reference
// implementations: Naive SLCA over the compiled posting lists, the
// eager entity map under this engine's schema, and LabelFor labels.
// Compile errors (empty query, missing keywords) pass through.
func referenceSearch(e *Engine, query string) ([]*Result, error) {
	q, err := e.Compile(query)
	if err != nil {
		return nil, err
	}
	hits, err := reference.Entities(e.root, reference.Naive(q.Lists), e.schema.NearestEntity)
	if err != nil {
		return nil, err
	}
	var out []*Result
	for _, h := range hits {
		out = append(out, &Result{Node: h.Node, Match: h.Match, Label: LabelFor(h.Node)})
	}
	return out, nil
}

// referenceResults is referenceSearch for a query known to match.
func referenceResults(t testing.TB, e *Engine, query string) []*Result {
	t.Helper()
	out, err := referenceSearch(e, query)
	if err != nil {
		t.Fatalf("reference %q: %v", query, err)
	}
	return out
}

// drainCursor pulls a cursor to exhaustion, failing on a stream error.
func drainCursor(t testing.TB, c Cursor) []*Result {
	t.Helper()
	out, err := Drain(c)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// rootTextDoc gives the document root text and a tag of its own, so
// the root itself is the SLCA of rootQueries.
const rootTextDoc = `<r>catalogtitle <p><name>a</name><v>alpha beta</v></p><p><name>b</name><v>beta gamma</v></p></r>`

var rootQueries = []string{"catalogtitle", "r", "r beta"}

// TestRootSLCAOnEveryRoute: a root SLCA comes back from doc-order
// Search, the drained cursor, and the score-bounded ranked page in both
// accuracies, each equal to the reference.
func TestRootSLCAOnEveryRoute(t *testing.T) {
	root := xmltree.MustParseString(rootTextDoc)
	e := New(root)
	for _, q := range rootQueries {
		want := referenceResults(t, e, q)
		if len(want) != 1 || want[0].Node != root {
			t.Fatalf("%q: reference returned %v, want the root", q, labels(want))
		}
		got, err := e.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, got, want, q+" Search")
		c, err := e.SearchStream(q)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, drainCursor(t, c), want, q+" SearchStream")
		wantPage := e.RankPage(want, q, SearchOptions{Limit: 10})
		for _, acc := range []Accuracy{AccuracyExact, AccuracyApprox} {
			page, total, _, err := e.SearchRankedPageWAND(q, SearchOptions{Limit: 10, Accuracy: acc})
			if err != nil {
				t.Fatal(err)
			}
			requireSamePages(t, q+" WAND", page, wantPage)
			if total != len(want) && !(acc == AccuracyApprox && total == StreamTotalUnknown) {
				t.Fatalf("%q accuracy %v: total %d, want %d", q, acc, total, len(want))
			}
		}
	}
}
