package core

import (
	"runtime"
	"sync"

	"repro/internal/feature"
)

// ForEachParallel runs fn(i) for every i in [0, n) across a bounded
// worker pool. workers <= 0 selects GOMAXPROCS; n <= 1 or a single
// worker degrades to a plain loop. fn must only touch state owned by
// its index or be concurrency-safe itself. Shared by the pooled DFS
// generator here and the serving engine's fan-outs.
func ForEachParallel(n, workers int, fn func(int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// GenerateParallel is Generate with the per-result independent phases
// — the initial valid top-fill and the final significance padding, and
// for the baselines the entire generation — spread across a worker
// pool. The swap algorithms' coordinate-ascent rounds stay sequential
// (each step conditions on all other selections), so results are
// bit-identical to Generate's; only wall time changes. Unknown
// algorithms return nil, as Generate does.
func GenerateParallel(alg Algorithm, stats []*feature.Stats, opts Options) []*DFS {
	switch alg {
	case AlgSingleSwap:
		return swapGenerate(stats, opts, (*kernel).singleSwapAscend, 0)
	case AlgMultiSwap:
		return swapGenerate(stats, opts, (*kernel).multiSwapAscend, 0)
	case AlgTopK:
		return topK(stats, opts, 0)
	default:
		// Greedy and exhaustive interleave results at every step; run
		// them serially.
		return Generate(alg, stats, opts)
	}
}
