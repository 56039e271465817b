package shard

import (
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/xseek"
)

// TestConcurrentLazySearch hammers a lazily-loading sharded engine
// with parallel queries: shard materialization must be race-free and
// happen at most once per shard (run under -race in CI).
func TestConcurrentLazySearch(t *testing.T) {
	root := dataset.ProductReviews(dataset.ReviewsConfig{Seed: 8, ProductsPerCategory: 5})
	schema := xseek.InferSchemaParallel(root, 0)
	fresh := Build(root, 4)
	indexes := fresh.ShardIndexes()
	loaders := make([]func() (*index.Index, error), len(indexes))
	for g := range loaders {
		g := g
		loaders[g] = func() (*index.Index, error) { return indexes[g], nil }
	}
	lazy, err := FromSourcesShared(root, schema, 4, fresh.TermFrequencies(), fresh.IndexStats().IndexedElements, loaders, nil)
	if err != nil {
		t.Fatal(err)
	}

	queries := []string{"tomtom gps", "easy", "garmin", "camera zoom", "tomtom gps"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q := queries[(w+i)%len(queries)]
				rs, err := lazy.Search(q)
				if err != nil {
					t.Errorf("%q: %v", q, err)
					return
				}
				_ = lazy.RankResults(rs, q)
				if _, _, _, err := lazy.SearchRankedPageWAND(q, xseek.SearchOptions{Limit: 5}); err != nil {
					t.Errorf("%q ranked: %v", q, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := lazy.Rebuilds(); n != 0 {
		t.Fatalf("rebuilds = %d, want 0", n)
	}
}
