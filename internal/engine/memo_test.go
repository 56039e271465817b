package engine

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// orderCorpus is a three-term corpus: every product holds alpha, beta
// and gamma (alpha repeated 1-3 times so scores differ across
// products), and fa/fb/fc filler products raise each term's document
// frequency, which moves its IDF.
func orderCorpus(products, fa, fb, fc int) string {
	var b strings.Builder
	b.WriteString("<store>")
	for i := 0; i < products; i++ {
		b.WriteString("<product>")
		for r := 0; r <= i%3; r++ {
			fmt.Fprintf(&b, "<a%d>alpha</a%d>", r, r)
		}
		b.WriteString("<b>beta</b><c>gamma</c></product>")
	}
	for _, f := range []struct {
		term string
		n    int
	}{{"alpha", fa}, {"beta", fb}, {"gamma", fc}} {
		for i := 0; i < f.n; i++ {
			fmt.Fprintf(&b, "<filler><f>%s</f></filler>", f.term)
		}
	}
	b.WriteString("</store>")
	return b.String()
}

// lastBitCorpus searches filler counts for a corpus on which the two
// orders' score sums differ in some result's last bit, so the
// term-order test cannot pass by accident of associativity.
func lastBitCorpus(t *testing.T, fwd, rev string) *xmltree.Node {
	t.Helper()
	for fa := 0; fa < 8; fa++ {
		for fb := 0; fb < 8; fb++ {
			for fc := 0; fc < 8; fc++ {
				root := xmltree.MustParseString(orderCorpus(6, fa, fb, fc))
				x := xseek.New(root)
				rs, err := x.Search(fwd)
				if err != nil {
					t.Fatal(err)
				}
				a, b := x.RankResults(rs, fwd), x.RankResults(rs, rev)
				for i := range a {
					for j := range b {
						if a[i].Result == b[j].Result && math.Float64bits(a[i].Score) != math.Float64bits(b[j].Score) {
							return root
						}
					}
				}
			}
		}
	}
	t.Fatal("no filler counts make the two term orders round differently")
	return nil
}

// rankedBits fingerprints a ranked page: Dewey IDs and score bits.
func rankedBits(rs []*xseek.RankedResult) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "%s@%016x;", r.Node.ID, math.Float64bits(r.Score))
	}
	return b.String()
}

// TestRankedMemoTermOrder: two orders of one three-term query share a
// query-cache slot, yet each order's ranked page and full ranking equal
// xseek's for that order, bit for bit — on a corpus where the two
// orders' sums really round differently.
func TestRankedMemoTermOrder(t *testing.T) {
	const fwd, rev = "alpha beta gamma", "gamma beta alpha"
	root := lastBitCorpus(t, fwd, rev)
	x := xseek.New(root)
	results, err := x.Search(fwd)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	wantFull := map[string]string{}
	for _, q := range []string{fwd, rev} {
		want[q] = rankedBits(x.RankPage(results, q, xseek.SearchOptions{Limit: 4}))
		wantFull[q] = rankedBits(x.RankResults(results, q))
	}
	if wantFull[fwd] == wantFull[rev] {
		t.Fatal("the corpus search returned a corpus whose orders agree")
	}

	e := New(root)
	// fwd fills the memo; rev must re-score, not reuse it; fwd again
	// must still be served its own order.
	for _, q := range []string{fwd, rev, fwd, rev} {
		page, err := e.SearchRankedPage(q, xseek.SearchOptions{Limit: 4})
		if err != nil {
			t.Fatal(err)
		}
		if got := rankedBits(page.Results); got != want[q] {
			t.Fatalf("%q page:\n got %s\nwant %s", q, got, want[q])
		}
		full, err := e.SearchRanked(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := rankedBits(full); got != wantFull[q] {
			t.Fatalf("%q ranking:\n got %s\nwant %s", q, got, wantFull[q])
		}
	}
	if m := e.Metrics(); m.QueryMisses != 1 {
		t.Fatalf("query misses = %d, want 1 (both orders share one slot)", m.QueryMisses)
	}
}

// rankSpy wraps an engine's executor to count RankResults calls and to
// run a hook just before the next one — a write landing between Search
// and the memo fill.
type rankSpy struct {
	executor
	calls atomic.Int64
	hook  atomic.Pointer[func()]
}

func (s *rankSpy) RankResults(results []*xseek.Result, query string) []*xseek.RankedResult {
	s.calls.Add(1)
	if f := s.hook.Swap(nil); f != nil {
		(*f)()
	}
	return s.executor.RankResults(results, query)
}

// spyOn installs a rankSpy over e's executor.
func spyOn(e *Engine) *rankSpy {
	spy := &rankSpy{executor: e.exec}
	e.exec = spy
	return spy
}

// TestRankedMemoConcurrentReaders covers the memo's sharing contract:
// racing first readers get one ranking, a caller's append never
// reaches the memo, and a write during the fill never leaves a memo
// that spans two epochs.
func TestRankedMemoConcurrentReaders(t *testing.T) {
	t.Run("RaceFirstHit", func(t *testing.T) {
		e := pagedCorpus(t, 40)
		spy := spyOn(e)
		if _, err := e.Search("gps unit"); err != nil {
			t.Fatal(err)
		}
		const readers = 16
		pages := make([]*RankedPage, readers)
		var start, done sync.WaitGroup
		start.Add(1)
		for g := 0; g < readers; g++ {
			done.Add(1)
			go func(g int) {
				defer done.Done()
				start.Wait()
				page, err := e.SearchRankedPage("gps unit", xseek.SearchOptions{Limit: 5})
				if err != nil {
					t.Error(err)
					return
				}
				pages[g] = page
			}(g)
		}
		start.Done()
		done.Wait()
		if t.Failed() {
			return
		}
		for g, p := range pages {
			if len(p.Results) != 5 || p.Total != pages[0].Total {
				t.Fatalf("reader %d: %d results of %d, want 5 of %d", g, len(p.Results), p.Total, pages[0].Total)
			}
			for i := range p.Results {
				if p.Results[i] != pages[0].Results[i] {
					t.Fatalf("reader %d rank %d is not the one memoized entry", g, i)
				}
			}
		}
		if m := e.Metrics(); m.QueryMisses != 1 || m.QueryHits != readers {
			t.Fatalf("query cache: %d misses / %d hits, want 1 / %d", m.QueryMisses, m.QueryHits, readers)
		}
		// Once memoized, later pages of any window never score again.
		scored := spy.calls.Load()
		for off := 0; off < 20; off += 5 {
			if _, err := e.SearchRankedPage("gps unit", xseek.SearchOptions{Limit: 5, Offset: off}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.SearchRanked("gps unit"); err != nil {
			t.Fatal(err)
		}
		if n := spy.calls.Load(); n != scored {
			t.Fatalf("warm pages scored %d more times, want 0", n-scored)
		}
	})

	t.Run("AppendDoesNotAlias", func(t *testing.T) {
		e := pagedCorpus(t, 20)
		x := xseek.New(e.Root())
		results, err := x.Search("gps")
		if err != nil {
			t.Fatal(err)
		}
		// Warm the query cache so both pages are windows of one memo.
		if _, err := e.Search("gps"); err != nil {
			t.Fatal(err)
		}
		want := rankedBits(x.RankPage(results, "gps", xseek.SearchOptions{Limit: 3, Offset: 3}))
		first, err := e.SearchRankedPage("gps", xseek.SearchOptions{Limit: 3})
		if err != nil {
			t.Fatal(err)
		}
		bogus := &xseek.RankedResult{Result: results[len(results)-1], Score: -1}
		if grown := append(first.Results, bogus, bogus, bogus); len(grown) != 6 {
			t.Fatalf("appended page has %d entries, want 6", len(grown))
		}
		next, err := e.SearchRankedPage("gps", xseek.SearchOptions{Limit: 3, Offset: 3})
		if err != nil {
			t.Fatal(err)
		}
		if got := rankedBits(next.Results); got != want {
			t.Fatalf("page after an append:\n got %s\nwant %s", got, want)
		}
		if m := e.Metrics(); m.RankedEager != 2 || m.RankedStreamed != 0 {
			t.Fatalf("pages: eager %d / streamed %d, want 2 / 0 (both from the memo)", m.RankedEager, m.RankedStreamed)
		}
		full, err := e.SearchRanked("gps")
		if err != nil {
			t.Fatal(err)
		}
		full[3] = bogus
		again, err := e.SearchRanked("gps")
		if err != nil {
			t.Fatal(err)
		}
		if got := rankedBits(again[3:6]); got != want {
			t.Fatalf("ranking after a caller's overwrite:\n got %s\nwant %s", got, want)
		}
	})

	t.Run("WriteDuringFill", func(t *testing.T) {
		e := pagedCorpus(t, 6)
		spy := spyOn(e)
		if _, err := e.Search("gps"); err != nil {
			t.Fatal(err)
		}
		stale := e.cached(queryKey("gps"), e.Epoch())
		if stale == nil {
			t.Fatal("warm search was not cached")
		}
		// An unbounded window never routes streamed, so the retry after
		// the write searches through the cache and fills a fresh memo.
		all := xseek.SearchOptions{}
		const added = "<product><name>PX gps gps gps</name><blurb>unit gps</blurb></product>"
		write := func() { mustAdd(t, e, added) }
		spy.hook.Store(&write)

		page, err := e.SearchRankedPage("gps", all)
		if err != nil {
			t.Fatal(err)
		}
		if spy.hook.Load() != nil {
			t.Fatal("the write hook never ran")
		}
		if stale.ranking.Load() != nil {
			t.Fatal("a ranking computed across the write was memoized in the pre-write outcome")
		}

		var b strings.Builder
		b.WriteString("<store>")
		for i := 0; i < 6; i++ {
			fmt.Fprintf(&b, "<product><name>P%02d gps</name><blurb>unit%s</blurb></product>", i, strings.Repeat(" gps", i%3))
		}
		b.WriteString(added + "</store>")
		cold := New(xmltree.MustParseString(b.String()))
		want, err := cold.SearchRankedPage("gps", all)
		if err != nil {
			t.Fatal(err)
		}
		if page.Total != want.Total || rankedBits(page.Results) != rankedBits(want.Results) {
			t.Fatalf("write-crossing page: %d total %s, cold engine %d total %s", page.Total, rankedBits(page.Results), want.Total, rankedBits(want.Results))
		}
		next, err := e.SearchRankedPage("gps", all)
		if err != nil {
			t.Fatal(err)
		}
		if next.Total != want.Total || rankedBits(next.Results) != rankedBits(want.Results) {
			t.Fatalf("next page: %d total %s, cold engine %d total %s", next.Total, rankedBits(next.Results), want.Total, rankedBits(want.Results))
		}
		if cur := e.cached(queryKey("gps"), e.Epoch()); cur == nil || cur.ranking.Load() == nil {
			t.Fatal("the post-write outcome did not memoize its ranking")
		}
	})
}
