package shard

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// TestShardedStreamEquivalence: the lazy fan-out paths must be
// bit-identical to the monolithic eager engine at K ∈ {1, 2, 8} —
// same ranked windows (scores included), same exact totals, same
// errors, and a doc-order cursor that drains to the same result list.
func TestShardedStreamEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	pageGrid := []xseek.SearchOptions{
		{Limit: 1}, {Limit: 2}, {Limit: 3, Offset: 1},
		{Limit: 2, Offset: 2}, {Limit: 100}, {Offset: 1}, {},
		{Limit: 4, Offset: 999},
	}
	for ti := 0; ti < 15; ti++ {
		doc := randomDoc(r, vocab)
		root := xmltree.MustParseString(doc)
		mono := xseek.NewParallel(root)
		for _, k := range []int{1, 2, 8} {
			sharded := Build(root, k)
			for qi := 0; qi < 8; qi++ {
				n := r.Intn(3) + 1
				terms := make([]string, n)
				for i := range terms {
					terms[i] = vocab[r.Intn(len(vocab))]
				}
				query := strings.Join(terms, " ")

				want, wantErr := mono.Search(query)

				// Doc-order cursor drains to the monolithic result list.
				cur, curErr := sharded.SearchStream(query)
				if !sameError(wantErr, curErr) {
					t.Fatalf("tree %d K=%d query %q: cursor err %v vs %v", ti, k, query, curErr, wantErr)
				}
				if curErr == nil {
					var got []*xseek.Result
					for {
						res, ok := cur.Next()
						if !ok {
							break
						}
						got = append(got, res)
					}
					if cur.Err() != nil {
						t.Fatalf("tree %d K=%d query %q: cursor failed: %v", ti, k, query, cur.Err())
					}
					if resultKey(got) != resultKey(want) {
						t.Fatalf("tree %d K=%d query %q cursor:\n got  %s\n want %s",
							ti, k, query, resultKey(got), resultKey(want))
					}
				}

				for _, opts := range pageGrid {
					wantPage, wantTotal, wantPageErr := func() ([]*xseek.RankedResult, int, error) {
						if wantErr != nil {
							return nil, 0, wantErr
						}
						return mono.RankPage(want, query, opts), len(want), nil
					}()
					gotPage, gotTotal, _, gotErr := sharded.SearchRankedPageWAND(query, opts)
					if !sameError(wantPageErr, gotErr) {
						t.Fatalf("tree %d K=%d query %q page %+v: err %v vs %v",
							ti, k, query, opts, gotErr, wantPageErr)
					}
					if gotErr != nil {
						continue
					}
					if gotTotal != wantTotal {
						t.Fatalf("tree %d K=%d query %q page %+v: total %d want %d",
							ti, k, query, opts, gotTotal, wantTotal)
					}
					if rankedKey(gotPage) != rankedKey(wantPage) {
						t.Fatalf("tree %d K=%d query %q page %+v:\n got  %s\n want %s",
							ti, k, query, opts, rankedKey(gotPage), rankedKey(wantPage))
					}
				}
			}
		}
	}
}

// TestShardedStreamCountsDecisions: the ranked fan-out advances the
// engine's streamed counter; its eager fallback does not.
func TestShardedStreamCountsDecisions(t *testing.T) {
	root := xmltree.MustParseString("<root><n0><leaf>alpha</leaf></n0><n0><leaf>alpha</leaf></n0></root>")
	e := Build(root, 2)
	if e.StreamedDecisions() != 0 {
		t.Fatal("fresh engine has streamed decisions")
	}
	if _, _, _, err := e.SearchRankedPageWAND("alpha", xseek.SearchOptions{Limit: 1}); err != nil {
		t.Fatal(err)
	}
	if e.StreamedDecisions() != 1 {
		t.Fatalf("streamed decisions = %d, want 1", e.StreamedDecisions())
	}
	// The unbounded fallback is eager and must not count.
	if _, _, _, err := e.SearchRankedPageWAND("alpha", xseek.SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	if e.StreamedDecisions() != 1 {
		t.Fatalf("streamed decisions after eager fallback = %d, want 1", e.StreamedDecisions())
	}
}
