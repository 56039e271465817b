package shard

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// seed33Doc is randomDoc at seed 33. At K=8 the query "gamma alpha"
// ranks 1.2.0 first, an entity whose subtree the partition splits
// across legs, so its score sums partial scores from several legs. No
// leg's block-max bound covers that sum: a fan-out whose legs stopped
// early at the shared threshold skipped the spine fix-up and returned
// 1.1.2 for {Limit: 1, Accuracy: approx}.
const seed33Doc = `<root>beta <n2><leaf>alpha gamma delta </leaf><n2><n0><leaf>beta beta gamma </leaf><leaf>beta </leaf></n0><n2><leaf>beta </leaf><leaf>alpha beta </leaf><leaf>gamma </leaf><leaf>gamma alpha beta </leaf></n2><n2><leaf>alpha </leaf><leaf>gamma delta </leaf><leaf>gamma </leaf></n2></n2><n0><n2><leaf>delta alpha alpha </leaf><leaf>delta alpha delta </leaf><leaf>gamma </leaf><leaf>beta beta beta </leaf></n2><n0><leaf>beta </leaf><leaf>gamma beta delta </leaf></n0></n0><leaf>gamma alpha </leaf></n2><leaf>gamma alpha </leaf></root>`

// TestShardedWANDEquivalence: the score-bounded fan-out must be
// bit-identical to the monolithic eager engine at K ∈ {2, 3, 4, 8}
// shards across randomized corpora, the fixed seed33Doc and window
// shapes — the cross-algorithm property the shared threshold must not
// break. Every leg runs exact whatever the requested accuracy, so an
// approximate page must equal the exact one, total included.
func TestShardedWANDEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(211))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	pageGrid := []xseek.SearchOptions{
		{Limit: 1}, {Limit: 2}, {Limit: 3, Offset: 1},
		{Limit: 2, Offset: 2}, {Limit: 100}, {Offset: 1}, {},
		{Limit: 4, Offset: 999},
	}
	docs := []string{seed33Doc}
	for i := 0; i < 12; i++ {
		docs = append(docs, randomDoc(r, vocab))
	}
	for ti, doc := range docs {
		root := xmltree.MustParseString(doc)
		mono := xseek.NewParallel(root)
		for _, k := range []int{2, 3, 4, 8} {
			sharded := Build(root, k)
			queries := []string{"gamma alpha"}
			for qi := 0; qi < 6; qi++ {
				terms := make([]string, r.Intn(3)+1)
				for i := range terms {
					terms[i] = vocab[r.Intn(len(vocab))]
				}
				queries = append(queries, strings.Join(terms, " "))
			}
			for _, query := range queries {
				want, wantErr := mono.Search(query)

				for _, opts := range pageGrid {
					wantPage, wantTotal, wantPageErr := func() ([]*xseek.RankedResult, int, error) {
						if wantErr != nil {
							return nil, 0, wantErr
						}
						return mono.RankPage(want, query, opts), len(want), nil
					}()
					gotPage, gotTotal, st, gotErr := sharded.SearchRankedPageWAND(query, opts)
					if !sameError(wantPageErr, gotErr) {
						t.Fatalf("tree %d K=%d query %q page %+v: err %v vs %v",
							ti, k, query, opts, gotErr, wantPageErr)
					}
					if gotErr != nil {
						continue
					}
					if st.Terminated {
						t.Fatalf("tree %d K=%d query %q page %+v: exact mode terminated", ti, k, query, opts)
					}
					if gotTotal != wantTotal {
						t.Fatalf("tree %d K=%d query %q page %+v: total %d want %d",
							ti, k, query, opts, gotTotal, wantTotal)
					}
					if rankedKey(gotPage) != rankedKey(wantPage) {
						t.Fatalf("tree %d K=%d query %q page %+v:\n got  %s\n want %s",
							ti, k, query, opts, rankedKey(gotPage), rankedKey(wantPage))
					}

					// Approximate mode: the same page and the same total.
					aPage, aTotal, ast, aErr := sharded.SearchRankedPageWAND(query,
						xseek.SearchOptions{Limit: opts.Limit, Offset: opts.Offset, Accuracy: xseek.AccuracyApprox})
					if aErr != nil {
						t.Fatalf("tree %d K=%d query %q page %+v approx: %v", ti, k, query, opts, aErr)
					}
					if rankedKey(aPage) != rankedKey(wantPage) {
						t.Fatalf("tree %d K=%d query %q page %+v approx:\n got  %s\n want %s",
							ti, k, query, opts, rankedKey(aPage), rankedKey(wantPage))
					}
					if aTotal != wantTotal || ast.Terminated {
						t.Fatalf("tree %d K=%d query %q page %+v approx: total %d (terminated %v), want %d",
							ti, k, query, opts, aTotal, ast.Terminated, wantTotal)
					}
				}
			}
		}
	}
}

// TestRankedPageHugeLimitAllocation: a ranked page sizes its merge by
// the entries the legs returned, not by offset+limit. A limit of 1<<27
// over a 200-movie corpus used to allocate 1 GiB of result slots to
// return a few dozen entries.
func TestRankedPageHugeLimitAllocation(t *testing.T) {
	root := dataset.Movies(dataset.MoviesConfig{Seed: 1, Movies: 200})
	sh := Build(root, 2)
	const query = "action revenge"
	want, err := xseek.NewParallel(root).Search(query)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	page, total, _, err := sh.SearchRankedPageWAND(query, xseek.SearchOptions{Limit: 1 << 27})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if total != len(want) || len(page) != len(want) {
		t.Fatalf("page %d of total %d, want the full ranking of %d", len(page), total, len(want))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("page of %d entries allocated %d MiB", len(page), grew>>20)
	}
}
