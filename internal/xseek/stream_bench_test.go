package xseek

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

// streamBenchCorpus builds n sibling entities, each carrying several
// leaf attributes and deliberately NO name-like field: the eager path
// materializes a labelled Result for every match (paying the label
// fallback's child scans and Sprintf per result), while the streamed
// path labels only the hits that survive the bounded heap. The common
// term appears in every entity, the rare term in every skew-th.
func streamBenchCorpus(n, skew int) *Engine {
	var b strings.Builder
	b.WriteString("<catalog>")
	for i := 0; i < n; i++ {
		b.WriteString("<item>")
		fmt.Fprintf(&b, "<desc>common widget %d</desc>", i)
		if i%skew == 0 {
			b.WriteString("<tag>rare</tag>")
		}
		for a := 0; a < 24; a++ {
			fmt.Fprintf(&b, "<attr%d>v%d</attr%d>", a, (i+a)%97, a)
		}
		b.WriteString("</item>")
	}
	b.WriteString("</catalog>")
	return NewParallel(xmltree.MustParseString(b.String()))
}

// BenchmarkStreamTopK contrasts the eager ranked page (materialize and
// label every result, then heap-select the window) with the ranked
// consumer in both accuracy modes (lazy iterators end-to-end, labels
// only for survivors) across window size × posting-list skew. limit=0
// ranks everything — the shape with no early termination to exploit,
// where the consumer should merely stay competitive.
func BenchmarkStreamTopK(b *testing.B) {
	const nEntities = 20000
	for _, skew := range []int{1, 48, 256} {
		b.Run(fmt.Sprintf("skew=%d", skew), func(b *testing.B) {
			e := streamBenchCorpus(nEntities, skew)
			for _, limit := range []int{10, 100, 0} {
				ls := fmt.Sprint(limit)
				if limit == 0 {
					ls = "all"
				}
				benchRankedModes(b, e, "common rare", "limit="+ls, SearchOptions{Limit: limit})
			}
		})
	}
}

// benchRankedModes runs one ranked window three ways: eager Search +
// RankPage, then the score-bounded consumer in exact and approximate
// mode.
func benchRankedModes(b *testing.B, e *Engine, query, name string, opts SearchOptions) {
	b.Run(name+"/eager", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := eagerRankedPage(e, query, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, acc := range []struct {
		name string
		acc  Accuracy
	}{{"wand-exact", AccuracyExact}, {"wand-approx", AccuracyApprox}} {
		aopts := opts
		aopts.Accuracy = acc.acc
		b.Run(name+"/"+acc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := e.SearchRankedPageWAND(query, aopts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// requirePrunes is the deterministic stand-in for a top-k timing
// guard: on a prunable shape, exact mode must return the eager page
// and total while skipping both entity scoring and posting blocks, and
// approximate mode must return the same page and stop draining.
func requirePrunes(t *testing.T, e *Engine, query string) {
	t.Helper()
	opts := SearchOptions{Limit: 10}
	want, wantTotal, err := eagerRankedPage(e, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, total, st, err := e.SearchRankedPageWAND(query, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSamePages(t, "exact", got, want)
	if total != wantTotal {
		t.Fatalf("exact total %d, want %d", total, wantTotal)
	}
	if !st.Bounded || st.Pruned == 0 || st.BlocksSkipped == 0 || st.Terminated {
		t.Fatalf("exact mode did not prune the prunable shape: %+v", st)
	}
	opts.Accuracy = AccuracyApprox
	got, total, st, err = e.SearchRankedPageWAND(query, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSamePages(t, "approx", got, want)
	if !st.Terminated || total != StreamTotalUnknown {
		t.Fatalf("approx mode did not stop draining: total %d, %+v", total, st)
	}
}

// TestStreamTopKSpeedup pins the benchmark's speedup deterministically
// instead of timing it: a small ranked window over the skewed workload
// (every result ties on score) is cut by the bounds as soon as the
// heap fills.
func TestStreamTopKSpeedup(t *testing.T) {
	requirePrunes(t, streamBenchCorpus(4800, 48), "common rare")
}
