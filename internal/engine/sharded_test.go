package engine

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/shard"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// newSharded serves root over a K-shard partition's indexes
// (FromSharded) for K > 1, and over one index otherwise.
func newSharded(root *xmltree.Node, k int, cfg Config) *Engine {
	if k > 1 {
		return FromSharded(shard.Build(root, k), cfg)
	}
	return NewWithConfig(root, cfg)
}

// TestShardedEngineEquivalence: a serving engine over a K-shard base
// (FromSharded) must produce identical Search, SearchPage, and
// SearchRankedPage envelopes (results, totals, offsets, scores, tie
// order) to the monolithic serving engine, across K ∈ {1, 2, 8} —
// through the cache on repeat queries too.
func TestShardedEngineEquivalence(t *testing.T) {
	root := dataset.ProductReviews(dataset.ReviewsConfig{Seed: 9, ProductsPerCategory: 6})
	mono := New(root)
	queries := append(dataset.ReviewQueries(), "easy", "gps camera", "nosuchword", "")
	for _, k := range []int{1, 2, 8} {
		sharded := newSharded(root, k, Config{})
		if k > 1 && sharded.Index() != nil {
			t.Fatalf("K=%d: expected a multi-part base", k)
		}
		for pass := 0; pass < 2; pass++ { // second pass = query-cache hits
			for _, q := range queries {
				want, wantErr := mono.Search(q)
				got, gotErr := sharded.Search(q)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("K=%d %q: err %v vs %v", k, q, gotErr, wantErr)
				}
				if len(got) != len(want) {
					t.Fatalf("K=%d %q: %d results vs %d", k, q, len(got), len(want))
				}
				for i := range want {
					if got[i].Node != want[i].Node || got[i].Label != want[i].Label {
						t.Fatalf("K=%d %q result %d: %s vs %s", k, q, i, got[i].Label, want[i].Label)
					}
				}
				if wantErr != nil {
					continue
				}

				for _, opts := range []xseek.SearchOptions{
					{}, {Limit: 3}, {Limit: 4, Offset: 2}, {Limit: 100, Offset: 1}, {Offset: 999},
				} {
					wp, err1 := mono.SearchPage(q, opts)
					gp, err2 := sharded.SearchPage(q, opts)
					if err1 != nil || err2 != nil {
						t.Fatalf("K=%d %q page: %v / %v", k, q, err1, err2)
					}
					if gp.Total != wp.Total || gp.Offset != wp.Offset || len(gp.Results) != len(wp.Results) {
						t.Fatalf("K=%d %q page %+v: envelope {%d %d %d} vs {%d %d %d}", k, q, opts,
							gp.Total, gp.Offset, len(gp.Results), wp.Total, wp.Offset, len(wp.Results))
					}
					wr, err1 := mono.SearchRankedPage(q, opts)
					gr, err2 := sharded.SearchRankedPage(q, opts)
					if err1 != nil || err2 != nil {
						t.Fatalf("K=%d %q ranked page: %v / %v", k, q, err1, err2)
					}
					if gr.Total != wr.Total || gr.Offset != wr.Offset || len(gr.Results) != len(wr.Results) {
						t.Fatalf("K=%d %q ranked page %+v: envelope mismatch", k, q, opts)
					}
					for i := range wr.Results {
						if gr.Results[i].Node != wr.Results[i].Node || gr.Results[i].Score != wr.Results[i].Score {
							t.Fatalf("K=%d %q ranked page %+v entry %d: %s@%v vs %s@%v", k, q, opts, i,
								gr.Results[i].Label, gr.Results[i].Score, wr.Results[i].Label, wr.Results[i].Score)
						}
					}
				}
			}
		}
	}
}

// TestShardedMetrics: over a K-shard base the metrics snapshot must
// report one shard (an in-process engine serves one posting view),
// count the planner decision of the one compiled query, and keep the
// cache counters working.
func TestShardedMetrics(t *testing.T) {
	root := dataset.ProductReviews(dataset.ReviewsConfig{Seed: 2, ProductsPerCategory: 4})
	e := newSharded(root, 3, Config{})
	if _, err := e.Search("tomtom gps"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Search("tomtom gps"); err != nil { // cache hit
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.Shards != 1 {
		t.Fatalf("metrics shards = %d, want 1", m.Shards)
	}
	if m.QueryHits != 1 || m.QueryMisses != 1 {
		t.Fatalf("query cache counters = %d hits / %d misses, want 1/1", m.QueryHits, m.QueryMisses)
	}
	if n := m.PlannerIndexedLookup + m.PlannerScanEager; n != 1 {
		t.Fatalf("planner decisions = %d, want 1 for one compiled query", n)
	}
	if mono := New(root).Metrics(); mono.Shards != 1 {
		t.Fatalf("monolithic metrics shards = %d, want 1", mono.Shards)
	}
}

// TestShardedIndexStats: aggregated index statistics must equal the
// monolithic index's.
func TestShardedIndexStats(t *testing.T) {
	root := dataset.Movies(dataset.MoviesConfig{Seed: 4})
	mono := New(root)
	sharded := newSharded(root, 4, Config{})
	a, b := mono.IndexStats(), sharded.IndexStats()
	if a != b {
		t.Fatalf("index stats diverge: monolithic %+v, sharded %+v", a, b)
	}
	if sharded.Index() != nil {
		t.Fatal("a multi-part base should expose no monolithic index")
	}
	if mono.IndexStats() != mono.Index().Stats() {
		t.Fatal("monolithic IndexStats should equal Index().Stats()")
	}
}

// TestSelectEngine: database selection over serving engines must pick
// the same corpus whatever the base's layout.
func TestSelectEngine(t *testing.T) {
	reviews := dataset.ProductReviews(dataset.ReviewsConfig{Seed: 1})
	movies := dataset.Movies(dataset.MoviesConfig{Seed: 1})
	for _, k := range []int{1, 4} {
		engines := map[string]*Engine{
			"reviews": newSharded(reviews, k, Config{}),
			"movies":  newSharded(movies, k, Config{}),
		}
		name, eng := SelectEngine(engines, "tomtom gps")
		if name != "reviews" || eng == nil {
			t.Fatalf("K=%d: tomtom gps routed to %q, want reviews", k, name)
		}
		if name, _ := SelectEngine(engines, "zzzznope"); name != "" {
			t.Fatalf("K=%d: uncovered query routed to %q, want none", k, name)
		}
	}
}
