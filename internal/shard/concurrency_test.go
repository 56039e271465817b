package shard

import (
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/xseek"
)

// TestConcurrentLazySearch hammers a sharded engine's lazy leg
// pipelines with parallel queries: every query streams through the
// same per-group engines, which must be race-free (run under -race in
// CI) and answer as the monolithic engine does.
func TestConcurrentLazySearch(t *testing.T) {
	root := dataset.ProductReviews(dataset.ReviewsConfig{Seed: 8, ProductsPerCategory: 5})
	sharded := Build(root, 4)
	mono := xseek.New(root)

	queries := []string{"tomtom gps", "easy", "garmin", "camera zoom", "tomtom gps"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q := queries[(w+i)%len(queries)]
				rs, err := sharded.Search(q)
				if err != nil {
					t.Errorf("%q: %v", q, err)
					return
				}
				want, _ := mono.Search(q)
				if resultKey(rs) != resultKey(want) {
					t.Errorf("%q: got %s, want %s", q, resultKey(rs), resultKey(want))
					return
				}
				_ = sharded.RankResults(rs, q)
				if _, _, _, err := sharded.SearchRankedPageWAND(q, xseek.SearchOptions{Limit: 5}); err != nil {
					t.Errorf("%q ranked: %v", q, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
