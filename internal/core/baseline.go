package core

import (
	"math/rand"

	"repro/internal/feature"
)

// TopK generates baseline DFSs that ignore differentiation entirely:
// each result independently takes its most significant valid features
// up to the size bound. This mirrors what frequency-biased snippet
// generators (eXtract, Figure 1 of the paper) show for a single
// result, and is the comparison point for the Figure 1 → Figure 2
// quality gap.
func TopK(stats []*feature.Stats, opts Options) []*DFS {
	return topK(stats, opts, 1)
}

// topK is TopK with the per-result fills spread over workers.
func topK(stats []*feature.Stats, opts Options, workers int) []*DFS {
	kn := newKernel(stats, opts.normalized())
	kn.padAll(workers)
	return kn.dfss()
}

// Random generates valid DFSs by repeatedly applying a uniformly
// random grow move until the budget is exhausted. It is the weakest
// baseline and a fuzzing aid: any valid selection is reachable.
func Random(stats []*feature.Stats, opts Options, rng *rand.Rand) []*DFS {
	kn := newKernel(stats, opts.normalized())
	for i := 0; i < kn.k; i++ {
		for kn.size[i] < kn.opts.SizeBound {
			kn.moves = kn.growMoves(i, kn.row(i), kn.moves)
			if len(kn.moves) == 0 {
				break
			}
			kn.apply(i, kn.moves[rng.Intn(len(kn.moves))])
		}
	}
	return kn.dfss()
}

// Algorithm names a DFS-generation method for harnesses and CLIs.
type Algorithm string

const (
	AlgSingleSwap Algorithm = "single-swap"
	AlgMultiSwap  Algorithm = "multi-swap"
	AlgTopK       Algorithm = "top-k"
	AlgGreedy     Algorithm = "greedy"
	AlgExhaustive Algorithm = "exhaustive"
)

// Generate dispatches on the algorithm name. Random is excluded (it
// needs a seed); use the Random function directly.
func Generate(alg Algorithm, stats []*feature.Stats, opts Options) []*DFS {
	switch alg {
	case AlgSingleSwap:
		return SingleSwap(stats, opts)
	case AlgMultiSwap:
		return MultiSwap(stats, opts)
	case AlgTopK:
		return TopK(stats, opts)
	case AlgGreedy:
		return GreedyGlobal(stats, opts)
	case AlgExhaustive:
		return Exhaustive(stats, opts)
	default:
		return nil
	}
}

// Algorithms lists the deterministic generation methods.
func Algorithms() []Algorithm {
	return []Algorithm{AlgSingleSwap, AlgMultiSwap, AlgTopK, AlgGreedy, AlgExhaustive}
}
