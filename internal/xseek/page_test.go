package xseek

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

// stableSortByScore applies the same ordering rule RankResults uses,
// as the reference for the heap-selection tests.
func stableSortByScore(rs []*RankedResult) {
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].Score > rs[j].Score })
}

// pagedDoc is a corpus with enough results (and score ties) to make
// pagination and partial ranking interesting: every product matches
// "gps", with term frequencies cycling 1..3 so distinct scores repeat.
func pagedDoc(n int) string {
	var b strings.Builder
	b.WriteString("<store>")
	for i := 0; i < n; i++ {
		extra := strings.Repeat(" gps", i%3)
		fmt.Fprintf(&b, "<product><name>P%02d gps</name><blurb>unit%s</blurb></product>", i, extra)
	}
	b.WriteString("</store>")
	return b.String()
}

// TestSearchPageConcatenationEqualsSearch: consecutive Window cuts of
// the doc-order result list — how the serving layer pages a cached
// Search — tile the full list for every page size.
func TestSearchPageConcatenationEqualsSearch(t *testing.T) {
	e := New(xmltree.MustParseString(pagedDoc(23)))
	full, err := e.Search("gps")
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 23 {
		t.Fatalf("full = %d results, want 23", len(full))
	}
	for _, limit := range []int{1, 4, 7, 23, 100} {
		var got []*Result
		for off := 0; ; off += limit {
			lo, hi := SearchOptions{Limit: limit, Offset: off}.Window(len(full))
			if lo == hi {
				break
			}
			got = append(got, full[lo:hi]...)
		}
		if len(got) != len(full) {
			t.Fatalf("limit %d: concatenated %d results, want %d", limit, len(got), len(full))
		}
		for i := range full {
			if got[i] != full[i] {
				t.Fatalf("limit %d: page concat diverges at %d: %q vs %q", limit, i, got[i].Label, full[i].Label)
			}
		}
	}
}

func TestSearchPageOutOfRangeOffset(t *testing.T) {
	e := New(xmltree.MustParseString(pagedDoc(5)))
	full, err := e.Search("gps")
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := (SearchOptions{Limit: 10, Offset: 99}).Window(len(full)); lo != hi || len(full) != 5 {
		t.Fatalf("window [%d, %d) of %d results; want an empty page of 5", lo, hi, len(full))
	}
	// Negative values clamp instead of failing.
	if lo, hi := (SearchOptions{Limit: -3, Offset: -7}).Window(len(full)); lo != 0 || hi != 5 {
		t.Fatalf("negative options: window [%d, %d), want the full list", lo, hi)
	}
}

func TestWindowBounds(t *testing.T) {
	cases := []struct {
		opts   SearchOptions
		n      int
		lo, hi int
	}{
		{SearchOptions{}, 10, 0, 10},
		{SearchOptions{Limit: 3}, 10, 0, 3},
		{SearchOptions{Limit: 3, Offset: 9}, 10, 9, 10},
		{SearchOptions{Offset: 4}, 10, 4, 10},
		{SearchOptions{Limit: 5, Offset: 20}, 10, 10, 10},
		{SearchOptions{Limit: -1, Offset: -1}, 10, 0, 10},
		{SearchOptions{Limit: 2}, 0, 0, 0},
		// Adversarial limits (e.g. strconv.Atoi range-clamping an HTTP
		// parameter to MaxInt) must not overflow lo+Limit.
		{SearchOptions{Limit: math.MaxInt, Offset: 1}, 10, 1, 10},
		{SearchOptions{Limit: math.MaxInt, Offset: math.MaxInt}, 10, 10, 10},
	}
	for _, c := range cases {
		lo, hi := c.opts.Window(c.n)
		if lo != c.lo || hi != c.hi {
			t.Errorf("Window(%+v, %d) = [%d, %d), want [%d, %d)", c.opts, c.n, lo, hi, c.lo, c.hi)
		}
	}
}

// TestRankPageEqualsRankResults is the partial top-k invariant: every
// window of RankPage must equal the same window of the full stable
// sort, including on score ties (broken by document order).
func TestRankPageEqualsRankResults(t *testing.T) {
	e := New(xmltree.MustParseString(pagedDoc(37)))
	results, err := e.Search("gps")
	if err != nil {
		t.Fatal(err)
	}
	full := e.RankResults(results, "gps")
	for _, limit := range []int{1, 2, 5, 10, 36, 37, 50} {
		for _, offset := range []int{0, 1, 7, 30, 36, 37, 99} {
			page := e.RankPage(results, "gps", SearchOptions{Limit: limit, Offset: offset})
			lo, hi := (SearchOptions{Limit: limit, Offset: offset}).Window(len(full))
			want := full[lo:hi]
			if len(page) != len(want) {
				t.Fatalf("limit %d offset %d: %d results, want %d", limit, offset, len(page), len(want))
			}
			for i := range want {
				if page[i].Result != want[i].Result || page[i].Score != want[i].Score {
					t.Fatalf("limit %d offset %d: rank page diverges at %d: %q (%.4f) vs %q (%.4f)",
						limit, offset, i, page[i].Label, page[i].Score, want[i].Label, want[i].Score)
				}
			}
		}
	}
}

// TestTopKRandomizedAgainstFullSort drives the heap selection with
// random scores (including duplicates) and checks it against the
// stable full sort for every k.
func TestTopKRandomizedAgainstFullSort(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := r.Intn(40) + 1
		scored := make([]*RankedResult, n)
		for i := range scored {
			scored[i] = &RankedResult{
				Result: &Result{Label: fmt.Sprintf("r%d", i)},
				Score:  float64(r.Intn(5)), // few distinct values → many ties
			}
		}
		full := make([]*RankedResult, n)
		copy(full, scored)
		// Reference: the same stable ordering RankResults applies.
		stableSortByScore(full)
		for k := 0; k <= n+2; k++ {
			got := topK(scored, k)
			want := full
			if k < n {
				want = full[:k]
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d k=%d: got %d, want %d", n, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d k=%d: topK diverges at %d: %s vs %s", n, k, i, got[i].Label, want[i].Label)
				}
			}
		}
	}
}

// TestSearchRankedPageConcatenationEqualsSearchRanked: consecutive
// pages of the ranked consumer tile the full eager ranking, scores
// included.
func TestSearchRankedPageConcatenationEqualsSearchRanked(t *testing.T) {
	e := New(xmltree.MustParseString(pagedDoc(29)))
	full, err := e.SearchRanked("gps")
	if err != nil {
		t.Fatal(err)
	}
	var got []*RankedResult
	for off := 0; ; off += 6 {
		page, total, _, err := e.SearchRankedPageWAND("gps", SearchOptions{Limit: 6, Offset: off})
		if err != nil {
			t.Fatal(err)
		}
		if total != len(full) {
			t.Fatalf("total = %d, want %d", total, len(full))
		}
		if len(page) == 0 {
			break
		}
		got = append(got, page...)
	}
	requireSamePages(t, "ranked page concat", got, full)
}

func TestExecuteRejectsUnknownAlgorithmOverride(t *testing.T) {
	e := New(xmltree.MustParseString(pagedDoc(4)))
	q, err := e.Compile("gps")
	if err != nil {
		t.Fatal(err)
	}
	q.Alg = "scan" // typo'd override must fail loudly, not match nothing
	if _, err := q.Execute(); err == nil {
		t.Fatal("unknown algorithm override did not error")
	}
	q.Alg = "" // empty defers to the planner
	rs, err := q.Execute()
	if err != nil || len(rs) == 0 {
		t.Fatalf("empty algorithm override: %d results, err %v", len(rs), err)
	}
	compareResults(t, rs, referenceResults(t, e, "gps"), "empty algorithm override")
}

func TestPlannerCountersAdvance(t *testing.T) {
	e := New(xmltree.MustParseString(pagedDoc(8)))
	i0, s0 := e.PlannerDecisions()
	if _, err := e.Search("gps unit"); err != nil {
		t.Fatal(err)
	}
	i1, s1 := e.PlannerDecisions()
	if (i1-i0)+(s1-s0) != 1 {
		t.Fatalf("planner decisions advanced by %d, want 1", (i1-i0)+(s1-s0))
	}
}
