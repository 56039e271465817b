package xsact

// Stress test at the paper's stated data scale: "a product can have
// hundreds of reviews ... and a brand can have hundreds of products",
// and the demo claim that comparison tables are generated "in a short
// period of time" despite that. Skipped with -short.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/feature"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

func TestStressHundredsOfReviews(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	root := dataset.ProductReviews(dataset.ReviewsConfig{
		Seed:                99,
		ProductsPerCategory: 10,
		MinReviews:          200,
		MaxReviews:          400,
	})
	eng := xseek.New(root)
	results, err := eng.Search("gps")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < 10 {
		t.Fatalf("results = %d", len(results))
	}
	start := time.Now()
	stats := make([]*feature.Stats, len(results))
	for i, r := range results {
		stats[i] = feature.Extract(r.Node, eng.Schema(), r.Label)
	}
	extractTime := time.Since(start)

	start = time.Now()
	dfss := core.MultiSwap(stats, core.Options{SizeBound: 10, Threshold: 0.1, Pad: true})
	genTime := time.Since(start)

	for _, d := range dfss {
		if err := d.Validate(10); err != nil {
			t.Fatal(err)
		}
	}
	if dod := core.TotalDoD(dfss, 0.1); dod <= 0 {
		t.Fatalf("no differentiation at scale: DoD = %d", dod)
	}
	// "Short period of time": generous CI-safe bound, far above what
	// the run actually needs but catching quadratic blowups.
	if genTime > 5*time.Second {
		t.Fatalf("DFS generation took %v over hundreds-of-reviews corpus", genTime)
	}
	t.Logf("extract=%v generate=%v over %d results", extractTime, genTime, len(results))
}

// TestStressLiveUpdatesUnderLoad hammers a live document — over one
// index, and over a cluster of four legs — with concurrent searchers,
// rankers, and snippet readers while a writer streams adds, removes,
// and compactions through the facade. Run with
// -race this exercises the full serving stack's epoch-swap coherence:
// cached outcomes must never leak across writes, and every observed
// answer must be well-formed. Skipped with -short.
func TestStressLiveUpdatesUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			doc := liveDoc(t, func() *xmltree.Node { return reviews(3) }, shards, 16)

			stop := make(chan struct{})
			var readers sync.WaitGroup
			for r := 0; r < 4; r++ {
				readers.Add(1)
				go func(r int) {
					defer readers.Done()
					queries := []string{"tomtom gps", "camera", "stressterm", "gps"}
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						q := queries[(i+r)%len(queries)]
						results, _, total, err := doc.SearchRankedPage(q, 5, 0)
						if err != nil {
							continue
						}
						if len(results) > total {
							t.Errorf("page of %d results from a total of %d", len(results), total)
							return
						}
						if len(results) >= 2 {
							if _, err := Compare(results[:2], CompareOptions{SizeBound: 6}); err != nil {
								t.Error(err)
								return
							}
						}
						for _, res := range results {
							if res.Describe() == "" {
								t.Error("empty result description")
								return
							}
						}
					}
				}(r)
			}

			var added []string
			for op := 0; op < 80; op++ {
				switch {
				case op%4 == 3 && len(added) > 0:
					// A background auto-compaction may have renumbered and
					// invalidated the handle; that's the documented contract
					// (IDs are positional addresses), so a miss is fine.
					_ = doc.RemoveEntity(added[0])
					added = added[1:]
				case op%10 == 9:
					if err := doc.Compact(); err != nil {
						t.Fatal(err)
					}
					added = nil // compaction renumbers; drop stale handles
				default:
					id, err := doc.AddEntity(fmt.Sprintf(
						"<product><name>StressItem %d</name><category>stressterm gadget</category></product>", op))
					if err != nil {
						t.Fatal(err)
					}
					added = append(added, id)
				}
			}
			close(stop)
			readers.Wait()

			// The writer's entities that survived must be searchable, and
			// the backlog must drain on a final compaction.
			if err := doc.Compact(); err != nil {
				t.Fatal(err)
			}
			if n := backlog(doc); n != 0 {
				t.Fatalf("backlog of %d after final compaction", n)
			}
			results, err := doc.Search("stressterm")
			if err != nil {
				t.Fatal(err)
			}
			if len(results) == 0 {
				t.Fatal("no stress entities survived")
			}
		})
	}
}

func TestStressHundredsOfProductsPerBrand(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	doc := FromTree(dataset.OutdoorRetailer(dataset.RetailerConfig{Seed: 99, ProductsPerBrand: 300}))
	products, err := doc.Search("men jackets")
	if err != nil {
		t.Fatal(err)
	}
	var brands []*Result
	for _, p := range products {
		brands = append(brands, p.Lift("brand"))
	}
	brands = Dedupe(brands)
	if len(brands) < 4 {
		t.Fatalf("brands = %d", len(brands))
	}
	start := time.Now()
	cmp, err := Compare(brands, CompareOptions{SizeBound: 12})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("brand comparison took %v at 300 products/brand", elapsed)
	}
	if cmp.DoD <= 0 {
		t.Fatal("no differentiation across big brands")
	}
}
