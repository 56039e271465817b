package update

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// TestConcurrentReadersDuringWrites hammers one live engine with
// readers (search, ranking, paging, spell-correction, statistics)
// while a writer interleaves adds, removes, and compactions. Run under
// -race this is the lock-free epoch-swap proof: readers must never see
// a torn state, and every answer must be internally consistent (well-
// formed results for whatever epoch the reader landed on).
func TestConcurrentReadersDuringWrites(t *testing.T) {
	for _, k := range []int{1, 4} {
		k := k
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			origin := xmltree.MustParseString(corpusXML(rng, 12))
			var live *Engine
			if k > 1 {
				live = wrapShards(origin, k)
			} else {
				live = Wrap(xseek.NewParallel(origin))
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					queries := []string{"gps", "camera zoom", "quality", "welcome", "nomatchterm"}
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						q := queries[i%len(queries)]
						results, err := searchOf(live, q)
						if err != nil {
							continue
						}
						ranked := rankWindow(live.RankResults(results, q), xseek.SearchOptions{Limit: 3})
						if len(ranked) > len(results) {
							t.Errorf("page larger than result set: %d > %d", len(ranked), len(results))
							return
						}
						for _, res := range ranked {
							if res.Node == nil || res.Label == "" {
								t.Error("malformed ranked result")
								return
							}
						}
						live.CleanQuery("camra")
						live.IndexStats()
						live.TotalNodes()
					}
				}(r)
			}

			wrng := rand.New(rand.NewSource(12))
			serial := 5000
			for op := 0; op < 60; op++ {
				switch r := wrng.Float64(); {
				case r < 0.5:
					if _, err := live.AddEntity(xmltree.MustParseString(randomProduct(wrng, serial))); err != nil {
						t.Fatal(err)
					}
					serial++
				case r < 0.8:
					// Remove whatever entity is currently last; ignore
					// not-found races with our own earlier removals.
					s := live.view()
					if len(s.top) > 1 {
						_ = live.RemoveEntity([]int{s.top[len(s.top)-1].ord})
					}
				default:
					if err := live.Compact(); err != nil {
						t.Fatal(err)
					}
				}
			}
			close(stop)
			wg.Wait()

			// The corpus must still be exactly reconstructible: compact and
			// verify against a cold rebuild of the final tree.
			if err := live.Compact(); err != nil {
				t.Fatal(err)
			}
			final := live.Root()
			cold := xseek.NewParallel(rebuildTree(final))
			for _, q := range []string{"gps", "quality", "welcome"} {
				lr, lerr := searchOf(live, q)
				cr, cerr := cold.Search(q)
				if (lerr == nil) != (cerr == nil) {
					t.Fatalf("final state: query %q errors differ: %v vs %v", q, lerr, cerr)
				}
				if canonical(lr) != canonical(cr) {
					t.Fatalf("final state: query %q diverged from cold rebuild", q)
				}
			}
		})
	}
}
