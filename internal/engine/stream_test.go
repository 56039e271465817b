package engine

import (
	"testing"

	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// TestEngineStreamPageConcatenation: paging through SearchStreamPage
// reproduces Search's full result list, reports StreamTotalUnknown
// until some window reaches the end, and resumes the one cached cursor
// instead of re-searching.
func TestEngineStreamPageConcatenation(t *testing.T) {
	e := pagedCorpus(t, 17)
	full, err := e.Search("gps")
	if err != nil {
		t.Fatal(err)
	}
	var got []*xseek.Result
	calls := 0
	for off := 0; ; off += 5 {
		page, err := e.SearchStreamPage("gps", xseek.SearchOptions{Limit: 5, Offset: off})
		if err != nil {
			t.Fatal(err)
		}
		calls++
		if off+5 < len(full) {
			if page.Total != xseek.StreamTotalUnknown {
				t.Fatalf("offset %d: total = %d, want unknown (%d)", off, page.Total, xseek.StreamTotalUnknown)
			}
		} else if page.Total != len(full) {
			t.Fatalf("offset %d: total = %d, want %d", off, page.Total, len(full))
		}
		if len(page.Results) == 0 {
			break
		}
		got = append(got, page.Results...)
	}
	if len(got) != len(full) {
		t.Fatalf("concatenated %d results, want %d", len(got), len(full))
	}
	for i := range full {
		// Streamed results are fresh structs from the lazy pipeline, but
		// they resolve to the same tree nodes and labels.
		if got[i].Node != full[i].Node || got[i].Label != full[i].Label {
			t.Fatalf("stream concat diverges at %d: %q vs %q", i, got[i].Label, full[i].Label)
		}
	}
	m := e.Metrics()
	if m.StreamMisses != 1 || m.StreamHits != int64(calls-1) {
		t.Fatalf("stream cache: %d misses / %d hits, want 1 / %d", m.StreamMisses, m.StreamHits, calls-1)
	}
	if m.StreamCursorLen != 1 {
		t.Fatalf("stream cursor cache holds %d entries, want 1", m.StreamCursorLen)
	}
}

// TestEngineRankedStreamRouting: a small bounded window over a large
// uncached result set routes to the streamed pipeline (bit-identical
// page, exact total); warming the query cache flips the same request
// to a window of the cached outcome's ranking, which later pages reuse
// instead of re-scoring.
func TestEngineRankedStreamRouting(t *testing.T) {
	e := pagedCorpus(t, 60)
	eager := pagedCorpus(t, 60)
	wantFull, err := eager.SearchRanked("gps")
	if err != nil {
		t.Fatal(err)
	}

	page, err := e.SearchRankedPage("gps", xseek.SearchOptions{Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.RankedStreamed != 1 || m.RankedEager != 0 {
		t.Fatalf("cold small window: streamed %d / eager %d, want 1 / 0", m.RankedStreamed, m.RankedEager)
	}
	if m.PlannerStreamed == 0 {
		t.Fatal("executor streamed counter did not move")
	}
	if page.Total != len(wantFull) {
		t.Fatalf("streamed total = %d, want %d", page.Total, len(wantFull))
	}
	if len(page.Results) != 3 {
		t.Fatalf("streamed page has %d results, want 3", len(page.Results))
	}
	for i, r := range page.Results {
		if r.Label != wantFull[i].Label || r.Score != wantFull[i].Score {
			t.Fatalf("streamed rank %d: %q@%v, want %q@%v", i, r.Label, r.Score, wantFull[i].Label, wantFull[i].Score)
		}
	}

	// Warm the query cache: the identical request is now a window of the
	// cached outcome's ranking, scored on this first ranked hit.
	if _, err := e.Search("gps"); err != nil {
		t.Fatal(err)
	}
	page2, err := e.SearchRankedPage("gps", xseek.SearchOptions{Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	m = e.Metrics()
	if m.RankedStreamed != 1 || m.RankedEager != 1 {
		t.Fatalf("warm small window: streamed %d / eager %d, want 1 / 1", m.RankedStreamed, m.RankedEager)
	}
	for i := range page.Results {
		if page2.Results[i].Label != page.Results[i].Label || page2.Results[i].Score != page.Results[i].Score {
			t.Fatalf("eager route diverges from streamed at %d", i)
		}
	}
	// The next page of the same outcome is cut from the memoized
	// ranking: the very entries the previous page held, not a re-score.
	page3, err := e.SearchRankedPage("gps", xseek.SearchOptions{Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m = e.Metrics(); m.RankedStreamed != 1 || m.RankedEager != 2 {
		t.Fatalf("second warm window: streamed %d / eager %d, want 1 / 2", m.RankedStreamed, m.RankedEager)
	}
	for i := range page2.Results {
		if page3.Results[i] != page2.Results[i] {
			t.Fatalf("warm rank %d was re-scored instead of served from the cached ranking", i)
		}
	}

	// An unbounded window has nothing to terminate early: a cold one
	// searches through the cache and ranks the fresh outcome.
	e2 := pagedCorpus(t, 60)
	if _, err := e2.SearchRankedPage("gps", xseek.SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	m = e2.Metrics()
	if m.RankedStreamed != 0 || m.RankedEager != 1 {
		t.Fatalf("unbounded window: streamed %d / eager %d, want 0 / 1", m.RankedStreamed, m.RankedEager)
	}
}

// TestEngineStreamPageWriteInvalidation: a write bumps the epoch, so
// the next stream page abandons the stale cursor and serves the new
// corpus.
func TestEngineStreamPageWriteInvalidation(t *testing.T) {
	e := pagedCorpus(t, 6)
	if _, err := e.SearchStreamPage("gps", xseek.SearchOptions{Limit: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddEntity(xmltree.MustParseString("<product><name>PX gps</name><blurb>unit</blurb></product>")); err != nil {
		t.Fatal(err)
	}
	page, err := e.SearchStreamPage("gps", xseek.SearchOptions{Limit: 100})
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != 7 {
		t.Fatalf("post-write streamed total = %d, want 7", page.Total)
	}
	m := e.Metrics()
	if m.StreamMisses != 2 {
		t.Fatalf("stream misses = %d, want 2 (stale cursor must not be reused)", m.StreamMisses)
	}
}
