package core

import "repro/internal/feature"

// GreedyGlobal implements the "better algorithms" future-work
// direction the paper closes with: instead of per-result local search,
// it grows all DFSs together, repeatedly applying the single grow move
// — across every result — with the highest marginal DoD gain, breaking
// ties toward the most frequent feature (the padding order). Budgets
// fill one feature at a time, so coordination emerges naturally: once
// one result opens a type, the type's gain becomes positive for every
// other result that carries it.
//
// For monotone objectives this greedy is the standard approximation
// scaffold; the DoD objective is monotone under selection growth but
// not submodular across results (a type's gain *rises* when a partner
// selects it), so no classical ratio applies — empirically it lands
// between TopK and SingleSwap. It runs in O(L·n · moves·n) time with
// no swap phase, making it the cheapest coordinated method.
func GreedyGlobal(stats []*feature.Stats, opts Options) []*DFS {
	return WeightedGreedy(stats, opts, UniformInterest)
}
