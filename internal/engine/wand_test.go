package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// wandCorpus is a serving-layer copy of the prunable benchmark shape:
// every entity matches the broad two-term query, heavy entities are
// front-loaded in document order, so a small window's threshold rules
// out the tail blocks early.
func wandCorpus(t *testing.T, n int) *Engine {
	t.Helper()
	var b strings.Builder
	b.WriteString("<catalog>")
	for i := 0; i < n; i++ {
		b.WriteString("<item>")
		reps := 1
		if i < n/20+1 {
			reps = 6
		}
		for r := 0; r < reps; r++ {
			fmt.Fprintf(&b, "<f%d>alpha beta</f%d>", r, r)
		}
		fmt.Fprintf(&b, "<desc>filler%d</desc>", i%13)
		b.WriteString("</item>")
	}
	b.WriteString("</catalog>")
	return New(xmltree.MustParseString(b.String()))
}

// TestEngineWANDMetrics: a cold small ranked window routes to the
// score-bounded consumer and the serving metrics must show it —
// ranked_wand counted under ranked_streamed, pruned entities and
// skipped blocks accumulated.
func TestEngineWANDMetrics(t *testing.T) {
	e := wandCorpus(t, 900)
	page, err := e.SearchRankedPage("alpha beta", xseek.SearchOptions{Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != 900 {
		t.Fatalf("exact-mode total = %d, want 900", page.Total)
	}
	if len(page.Results) != 5 {
		t.Fatalf("page has %d results, want 5", len(page.Results))
	}
	m := e.Metrics()
	if m.RankedStreamed != 1 || m.RankedWAND != 1 {
		t.Fatalf("ranked_streamed %d / ranked_wand %d, want 1 / 1", m.RankedStreamed, m.RankedWAND)
	}
	if m.WANDPruned == 0 {
		t.Fatal("wand_pruned did not move on the prunable shape")
	}
	if m.BlocksSkipped == 0 {
		t.Fatal("blocks_skipped did not move on the prunable shape")
	}
}

// TestEngineApproxRouting: accuracy=approx on a warm query cache is
// served from the cached outcome's ranking, page and total exact; on a
// cold cache it takes the score-bounded route, keeps the page
// identical to the exact one, and clamps the returned offset when the
// total degrades to unknown.
func TestEngineApproxRouting(t *testing.T) {
	e := wandCorpus(t, 900)
	// Warm the query cache: every ranked read below is a hit.
	if _, err := e.Search("alpha beta"); err != nil {
		t.Fatal(err)
	}
	exact, err := e.SearchRankedPage("alpha beta", xseek.SearchOptions{Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.RankedEager != 1 {
		t.Fatalf("warm exact window went streamed (eager=%d)", m.RankedEager)
	}
	approx, err := e.SearchRankedPage("alpha beta", xseek.SearchOptions{Limit: 5, Accuracy: xseek.AccuracyApprox})
	if err != nil {
		t.Fatal(err)
	}
	m = e.Metrics()
	if m.RankedEager != 2 || m.RankedStreamed != 0 || m.RankedWAND != 0 {
		t.Fatalf("warm approx: eager %d / streamed %d / wand %d, want 2 / 0 / 0 (served from the cached ranking)",
			m.RankedEager, m.RankedStreamed, m.RankedWAND)
	}
	samePage(t, approx.Results, exact.Results)
	if approx.Total != exact.Total {
		t.Fatalf("warm approx total = %d, want the exact %d", approx.Total, exact.Total)
	}

	cold := wandCorpus(t, 900)
	capprox, err := cold.SearchRankedPage("alpha beta", xseek.SearchOptions{Limit: 5, Accuracy: xseek.AccuracyApprox})
	if err != nil {
		t.Fatal(err)
	}
	if m := cold.Metrics(); m.RankedWAND != 1 || m.RankedEager != 0 {
		t.Fatalf("cold approx: wand %d / eager %d, want 1 / 0", m.RankedWAND, m.RankedEager)
	}
	samePage(t, capprox.Results, exact.Results)
	if capprox.Total != exact.Total && capprox.Total != xseek.StreamTotalUnknown {
		t.Fatalf("cold approx total = %d, want %d or unknown", capprox.Total, exact.Total)
	}

	// With an unknown total the offset cannot be re-derived from
	// Window(total); it must come back as the (clamped) requested offset.
	off, err := cold.SearchRankedPage("alpha beta",
		xseek.SearchOptions{Limit: 3, Offset: 2, Accuracy: xseek.AccuracyApprox})
	if err != nil {
		t.Fatal(err)
	}
	if off.Offset != 2 {
		t.Fatalf("approx offset echoed as %d, want 2", off.Offset)
	}
	neg, err := cold.SearchRankedPage("alpha beta",
		xseek.SearchOptions{Limit: 3, Offset: -4, Accuracy: xseek.AccuracyApprox})
	if err != nil {
		t.Fatal(err)
	}
	if neg.Offset != 0 {
		t.Fatalf("negative approx offset clamped to %d, want 0", neg.Offset)
	}
}

// samePage fails unless two ranked pages hold the same results (by
// Dewey ID, so pages of two engines over equal corpora compare) in the
// same order with bit-identical scores.
func samePage(t *testing.T, got, want []*xseek.RankedResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("page has %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Node.ID.Compare(want[i].Node.ID) != 0 || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("result %d %q@%v, want %q@%v", i, got[i].Label, got[i].Score, want[i].Label, want[i].Score)
		}
	}
}
