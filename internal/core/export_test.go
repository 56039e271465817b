package core

import "repro/internal/feature"

// RefGenerate runs the map-based reference implementation of alg (see
// reference_test.go) for the external-package corpus test.
func RefGenerate(alg Algorithm, stats []*feature.Stats, opts Options) []*DFS {
	switch alg {
	case AlgSingleSwap:
		return refSingleSwap(stats, opts)
	case AlgMultiSwap:
		return refMultiSwap(stats, opts)
	case AlgTopK:
		return refTopK(stats, opts)
	case AlgGreedy:
		return refGreedyGlobal(stats, opts)
	}
	return nil
}

// RefTotalDoD is TotalDoD under the reference differentiation rule.
var RefTotalDoD = refTotalDoD
