package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/feature"
	"repro/internal/xseek"
)

// corpusQueries are narrow genre + keyword + third-field queries with
// at least 20 results on the 2000-movie corpus.
var corpusQueries = []string{
	"action revenge english",
	"comedy romance english",
	"thriller heist english",
	"drama war english",
	"comedy family french",
	"drama war usa",
}

// TestDenseKernelMatchesReferenceOnCorpus runs the serving path —
// ranked top-k through engine.Generate — on the 2000-movie corpus and
// demands the features and total DoD of the map-based reference run on
// the same statistics.
func TestDenseKernelMatchesReferenceOnCorpus(t *testing.T) {
	eng := engine.New(dataset.Movies(dataset.MoviesConfig{Seed: 1, Movies: 2000}))
	for _, opts := range []core.Options{{SizeBound: 10, Threshold: 0.10}, {SizeBound: 10, Pad: true}} {
		for _, q := range corpusQueries {
			for _, k := range []int{5, 10, 20} {
				page, err := eng.SearchRankedPage(q, xseek.SearchOptions{Limit: k})
				if err != nil {
					t.Fatal(err)
				}
				if len(page.Results) < k {
					t.Fatalf("%q: %d results, want %d", q, len(page.Results), k)
				}
				rs := make([]*xseek.Result, k)
				for i, r := range page.Results {
					rs[i] = r.Result
				}
				for _, alg := range []core.Algorithm{core.AlgSingleSwap, core.AlgMultiSwap} {
					label := fmt.Sprintf("%q k=%d %s pad=%v", q, k, alg, opts.Pad)
					got := eng.Generate(alg, rs, opts)
					stats := make([]*feature.Stats, len(got))
					for i, d := range got {
						stats[i] = d.Stats
					}
					want := core.RefGenerate(alg, stats, opts)
					x := opts.Normalized().Threshold
					if a, b := core.TotalDoD(got, x), core.RefTotalDoD(want, x); a != b {
						t.Fatalf("%s: DoD %d, reference %d", label, a, b)
					}
					for i := range want {
						if a, b := fmt.Sprint(got[i].Features()), fmt.Sprint(want[i].Features()); a != b {
							t.Fatalf("%s: DFS %d features\n%s\nreference\n%s", label, i, a, b)
						}
					}
				}
			}
		}
	}
}
