package xseek

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

// wandBenchCorpus builds n sibling entities where every entity matches
// a broad two-term query, so the streamed path has no rare term to
// lean on and must score the whole candidate stream. A small fraction
// of heavy entities carries ~8 occurrences of both terms; with
// scatter=0 they are front-loaded in document order, so the top-k heap
// saturates within the first few blocks and the block-max bounds rule
// out everything after. scatter>0 spreads a heavy entity into every
// scatter-th slot instead, planting a high block maximum in nearly
// every block — the shape where bounds cannot prune and WAND should
// merely stay competitive.
func wandBenchCorpus(n, scatter int) *Engine {
	var b strings.Builder
	b.WriteString("<catalog>")
	heavyCount := n/50 + 1
	for i := 0; i < n; i++ {
		heavy := (scatter == 0 && i < heavyCount) || (scatter > 0 && i%scatter == 0)
		b.WriteString("<item>")
		reps := 1
		if heavy {
			reps = 8
		}
		for r := 0; r < reps; r++ {
			fmt.Fprintf(&b, "<f%d>common broad</f%d>", r, r)
		}
		for a := 0; a < 24; a++ {
			fmt.Fprintf(&b, "<attr%d>v%d</attr%d>", a, (i+a)%97, a)
		}
		b.WriteString("</item>")
	}
	b.WriteString("</catalog>")
	return NewParallel(xmltree.MustParseString(b.String()))
}

// BenchmarkWANDTopK contrasts the eager ranked page with the
// score-bounded consumer in both accuracy modes, across heavy-entity
// placement × window size. scatter=front is the prunable shape;
// scatter=48 poisons every block's maximum so the bounds buy nothing —
// the regression guard that pruning bookkeeping stays cheap.
func BenchmarkWANDTopK(b *testing.B) {
	const nEntities = 20000
	for _, scatter := range []int{0, 48} {
		ss := "front"
		if scatter > 0 {
			ss = fmt.Sprint(scatter)
		}
		b.Run(fmt.Sprintf("scatter=%s", ss), func(b *testing.B) {
			e := wandBenchCorpus(nEntities, scatter)
			for _, limit := range []int{10, 100} {
				benchRankedModes(b, e, "common broad", fmt.Sprintf("limit=%d", limit), SearchOptions{Limit: limit})
			}
		})
	}
}

// TestWANDTopKSpeedup pins the benchmark's speedup deterministically
// instead of timing it: on the front-loaded broad workload the heap
// saturates within the first blocks and the bounds rule out the rest.
func TestWANDTopKSpeedup(t *testing.T) {
	requirePrunes(t, wandBenchCorpus(4000, 0), "common broad")
}
