package experiment

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/feature"
)

// BlockOrderStats summarizes the DoD spread of multi-swap under
// different coordinate (block) orders — the DESIGN.md ablation asking
// how sensitive the local optimum is to visiting results round-robin
// in document order versus random orders.
type BlockOrderStats struct {
	Baseline int // DoD with the natural (document) order
	Min, Max int // DoD range over random permutations
	Trials   int
}

// BlockOrderAblation runs multi-swap on `trials` random permutations
// of the result list (total DoD is order-invariant as an objective,
// but coordinate ascent's path and fixpoint are not) and reports the
// spread against the natural order.
func BlockOrderAblation(stats []*feature.Stats, opts core.Options, trials int, seed int64) BlockOrderStats {
	out := BlockOrderStats{
		Baseline: core.TotalDoD(core.MultiSwap(stats, opts), opts.Threshold),
		Trials:   trials,
	}
	out.Min, out.Max = out.Baseline, out.Baseline
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < trials; i++ {
		perm := make([]*feature.Stats, len(stats))
		for j, p := range r.Perm(len(stats)) {
			perm[j] = stats[p]
		}
		dod := core.TotalDoD(core.MultiSwap(perm, opts), opts.Threshold)
		if dod < out.Min {
			out.Min = dod
		}
		if dod > out.Max {
			out.Max = dod
		}
	}
	return out
}
