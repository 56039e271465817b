package engine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

func liveTestCorpus() *xmltree.Node {
	return xmltree.MustParseString(`<shop>
	  <product><name>alpha</name><kind>gps</kind></product>
	  <product><name>beta</name><kind>gps</kind></product>
	  <product><name>gamma</name><kind>radio</kind></product>
	</shop>`)
}

func mustAdd(t *testing.T, e *Engine, xml string) {
	t.Helper()
	n, err := xmltree.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddEntity(n); err != nil {
		t.Fatal(err)
	}
}

// TestLiveCacheInvalidationOnEpochBump is the cache-coherence proof:
// a cached query outcome must never be served across a write or a
// compaction, at every cache (query, stats, DFS).
func TestLiveCacheInvalidationOnEpochBump(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e := newSharded(liveTestCorpus(), shards, Config{})
			rs, err := e.Search("gps")
			if err != nil {
				t.Fatal(err)
			}
			if len(rs) != 2 {
				t.Fatalf("seed corpus: %d gps results, want 2", len(rs))
			}
			// Warm the cache, then write.
			if _, err := e.Search("gps"); err != nil {
				t.Fatal(err)
			}
			hitsBefore := e.Metrics().QueryHits

			mustAdd(t, e, "<product><name>delta</name><kind>gps</kind></product>")
			rs, err = e.Search("gps")
			if err != nil {
				t.Fatal(err)
			}
			if len(rs) != 3 {
				t.Fatalf("after add: %d gps results, want 3 (stale cache served?)", len(rs))
			}
			if e.Metrics().QueryHits != hitsBefore {
				t.Fatalf("post-write search was served from the stale cache")
			}

			// Remove one of the originals; the cached 3-result outcome must
			// die with the epoch.
			if err := e.RemoveEntity([]int{0}); err != nil {
				t.Fatal(err)
			}
			rs, err = e.Search("gps")
			if err != nil {
				t.Fatal(err)
			}
			if len(rs) != 2 {
				t.Fatalf("after remove: %d gps results, want 2", len(rs))
			}
			for _, r := range rs {
				if r.Label == "alpha" {
					t.Fatal("removed entity still in results")
				}
			}

			// Compaction bumps the epoch too.
			if err := e.Compact(); err != nil {
				t.Fatal(err)
			}
			rs, err = e.Search("gps")
			if err != nil {
				t.Fatal(err)
			}
			if len(rs) != 2 {
				t.Fatalf("after compact: %d gps results, want 2", len(rs))
			}
			m := e.Metrics()
			if m.Updates != 2 || m.Compactions != 1 || m.Epoch == 0 {
				t.Fatalf("metrics = %+v, want 2 updates / 1 compaction / nonzero epoch", m)
			}
			if m.PendingDelta != 0 || m.PendingTombstones != 0 {
				t.Fatalf("post-compaction backlog nonzero: %+v", m)
			}
		})
	}
}

// TestLiveSnippetsAndComparisonsFollowWrites exercises the stats and
// DFS caches across epochs: a comparison computed before a write must
// be recomputed, not replayed, afterwards.
func TestLiveStatsFollowWrites(t *testing.T) {
	e := New(liveTestCorpus())
	rs, err := e.Search("gps")
	if err != nil {
		t.Fatal(err)
	}
	s1 := e.Stats(rs[0].Node, rs[0].Label)
	if s1 == nil {
		t.Fatal("nil stats")
	}
	if got := e.Stats(rs[0].Node, rs[0].Label); got != s1 {
		t.Fatal("same-epoch stats not served from cache")
	}
	mustAdd(t, e, "<product><name>delta</name><kind>gps</kind></product>")
	// Same node, new epoch: extraction reruns under the live schema.
	misses := e.Metrics().StatsMisses
	e.Stats(rs[0].Node, rs[0].Label)
	if e.Metrics().StatsMisses != misses+1 {
		t.Fatal("stats cache served a stale epoch entry")
	}
}

// TestMetricsConsistentUnderRace is the regression test for the
// metrics torn-read audit: Metrics() must be safe — and internally
// consistent — while searches, writes, and compactions run
// concurrently. Run with -race.
func TestMetricsConsistentUnderRace(t *testing.T) {
	e := newSharded(liveTestCorpus(), 2, Config{})
	stop := make(chan struct{})
	var writer, readers sync.WaitGroup

	// One write up front so the final progress check cannot be starved
	// by scheduling: on a loaded single-core runner the readers can
	// finish all their iterations before the writer goroutine ever
	// runs.
	if _, err := e.AddEntity(xmltree.MustParseString("<product><name>seed</name><kind>gps</kind></product>")); err != nil {
		t.Fatal(err)
	}

	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0:
				n := xmltree.MustParseString(fmt.Sprintf("<product><name>n%d</name><kind>gps</kind></product>", i))
				if _, err := e.AddEntity(n); err != nil {
					t.Error(err)
					return
				}
			case 1:
				_ = e.Compact()
			default:
				_, _ = e.Search("gps")
			}
		}
	}()
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 300; i++ {
				m := e.Metrics()
				if m.QueryCacheLen < 0 || m.Updates < 0 || m.PendingDelta < 0 {
					t.Error("nonsense metrics snapshot")
					return
				}
				_, _ = e.Search("gps")
				_ = e.IndexStats()
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()

	m := e.Metrics()
	if m.Shards < 1 {
		t.Fatalf("shards = %d", m.Shards)
	}
	if m.Updates == 0 {
		t.Fatal("writer made no progress")
	}
}

// TestPlannerCountersOnePerRead: every in-process engine runs one
// query pipeline over its base, so a compiled query counts one planner
// decision whatever the base's layout, and no counter runs backwards
// across a write or a compaction.
func TestPlannerCountersOnePerRead(t *testing.T) {
	queries := dataset.MovieQueries()
	sixReads := func(t *testing.T, e *Engine) Metrics {
		t.Helper()
		for i, q := range queries[:6] {
			var err error
			if i < 3 {
				_, err = e.Search(q)
			} else {
				_, err = e.SearchRankedPage(q, xseek.SearchOptions{Limit: 1, Accuracy: xseek.AccuracyApprox})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return e.Metrics()
	}
	planner := func(m Metrics) [3]int64 {
		return [3]int64{m.PlannerIndexedLookup, m.PlannerScanEager, m.PlannerStreamed}
	}
	corpus := func() *xmltree.Node { return dataset.Movies(dataset.MoviesConfig{Seed: 1, Movies: 200}) }
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e := newSharded(corpus(), shards, Config{})
			before := sixReads(t, e)
			if got := before.PlannerIndexedLookup + before.PlannerScanEager; got != 6 || before.PlannerStreamed != 3 {
				t.Fatalf("six reads counted %d planner decisions and %d streamed pages, want 6 and 3: %+v", got, before.PlannerStreamed, before)
			}
			if mono := sixReads(t, New(corpus())); planner(before) != planner(mono) {
				t.Fatalf("planner counters (indexed, scan, streamed) = %v, monolithic engine %v", planner(before), planner(mono))
			}
			last := before
			step := func(what string, f func() error) {
				t.Helper()
				if err := f(); err != nil {
					t.Fatal(err)
				}
				m := e.Metrics()
				for i, n := range planner(m) {
					if n < planner(last)[i] {
						t.Fatalf("planner counters ran backwards across %s:\nbefore %+v\nafter  %+v", what, last, m)
					}
				}
				last = m
			}
			step("an add", func() error {
				_, err := e.AddEntity(xmltree.MustParseString("<movie><title>counted</title></movie>"))
				return err
			})
			step("a compaction", e.Compact)
			step("a live search", func() error {
				_, err := e.Search(queries[6])
				return err
			})
			if got, prev := last.PlannerIndexedLookup+last.PlannerScanEager, before.PlannerIndexedLookup+before.PlannerScanEager; got != prev+1 {
				t.Fatalf("a live search after a write and a compaction left %d planner decisions, want %d", got, prev+1)
			}
		})
	}
}
