package core

import "repro/internal/feature"

// SingleSwap generates DFSs with the paper's single-swap method: start
// every result from the valid frequency top-fill (the natural summary)
// and repeatedly apply the first add / remove / change-one-feature
// move that strictly increases total DoD, cycling over results until
// no single move helps. The fixpoint is single-swap optimal: changing
// or adding any one feature of any DFS cannot increase DoD.
//
// Changing type t in result i only perturbs the DoD terms of t in
// pairs (i, j), so moves are scored by a per-type delta rather than by
// re-evaluating the whole objective — this is what keeps single-swap
// cheap per step (Figure 4(b)).
func SingleSwap(stats []*feature.Stats, opts Options) []*DFS {
	return swapGenerate(stats, opts, (*kernel).singleSwapAscend, 1)
}

// swapGenerate is the one entry of both local searches: the valid
// top-fill, the ascent, and (with opts.Pad) the final re-pad. The
// per-result fills spread over workers (ForEachParallel's convention);
// the ascent is sequential, so the output does not depend on workers.
func swapGenerate(stats []*feature.Stats, opts Options, ascend func(*kernel), workers int) []*DFS {
	kn := newKernel(stats, opts.normalized())
	kn.padAll(workers)
	ascend(kn)
	if kn.opts.Pad {
		kn.padAll(workers)
	}
	return kn.dfss()
}

// singleSwapAscend cycles first-improving moves over the results until
// none helps. Sequential across results, like multiSwapAscend.
func (kn *kernel) singleSwapAscend() {
	rounds := 0
	for {
		improved := false
		for i := 0; i < kn.k; i++ {
			if kn.improveOnce(i) {
				improved = true
			}
		}
		rounds++
		if !improved || (kn.opts.MaxRounds > 0 && rounds >= kn.opts.MaxRounds) {
			break
		}
	}
}

// improveOnce applies first-improving single-swap moves to result i
// until none exists. Returns whether anything changed.
func (kn *kernel) improveOnce(i int) bool {
	row := kn.row(i)
	changed := false
	for {
		applied := false

		// Pure grows (when under budget): adding a feature.
		if kn.size[i] < kn.opts.SizeBound {
			kn.moves = kn.growMoves(i, row, kn.moves)
			for _, g := range kn.moves {
				if kn.typeDelta(i, int(g.t), row[g.t], g.depth) > 0 {
					kn.apply(i, g)
					applied = true
					break
				}
			}
		}

		// Swaps (changing a feature): a shrink paired with a grow.
		// Deltas add because the two moves touch distinct types.
		if !applied {
			kn.moves2 = kn.shrinkMoves(i, kn.moves2)
		swaps:
			for _, s := range kn.moves2 {
				sDelta := kn.typeDelta(i, int(s.t), row[s.t], s.depth)
				sPrev := row[s.t]
				kn.apply(i, s) // grow moves are relative to the shrunk state
				kn.moves = kn.growMoves(i, row, kn.moves)
				for _, g := range kn.moves {
					if g.t == s.t {
						continue // same-type grow is just the inverse
					}
					if sDelta+kn.typeDelta(i, int(g.t), row[g.t], g.depth) > 0 {
						kn.apply(i, g)
						applied = true
						break swaps
					}
				}
				kn.apply(i, denseMove{t: s.t, depth: sPrev})
			}
		}

		if !applied {
			return changed
		}
		changed = true
	}
}
