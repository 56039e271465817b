package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// randomDoc builds a random XML corpus over a small vocabulary:
// repeated container elements (which the schema infers as entities)
// wrapping nested structure whose leaves carry 1-3 random terms, plus
// the occasional keyword directly on a wrapper — so spine nodes carry
// postings too and the cross-shard fix-up path is exercised.
func randomDoc(r *rand.Rand, vocab []string) string {
	var b strings.Builder
	var emit func(depth int)
	emit = func(depth int) {
		if depth >= 4 || r.Intn(3) == 0 {
			b.WriteString("<leaf>")
			for i := r.Intn(3) + 1; i > 0; i-- {
				b.WriteString(vocab[r.Intn(len(vocab))])
				b.WriteString(" ")
			}
			b.WriteString("</leaf>")
			return
		}
		d := r.Intn(3)
		fmt.Fprintf(&b, "<n%d>", d)
		for i := r.Intn(4) + 1; i > 0; i-- {
			emit(depth + 1)
		}
		fmt.Fprintf(&b, "</n%d>", d)
	}
	b.WriteString("<root>")
	if r.Intn(2) == 0 {
		// Root-level text: postings on the document root itself.
		b.WriteString(vocab[r.Intn(len(vocab))])
		b.WriteString(" ")
	}
	for i := r.Intn(6) + 2; i > 0; i-- {
		emit(1)
	}
	b.WriteString("</root>")
	return b.String()
}

func resultKey(rs []*xseek.Result) string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = r.Node.ID.String() + "=" + r.Match.ID.String() + "=" + r.Label
	}
	return strings.Join(parts, ";")
}

func rankedKey(rs []*xseek.RankedResult) string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = fmt.Sprintf("%s@%v", r.Node.ID, r.Score)
	}
	return strings.Join(parts, ";")
}

// TestShardedSearchEquivalence is the core sharding property test: on
// random corpora and queries, the sharded engine at K ∈ {1, 2, 8} must
// return byte-identical results to the monolithic xseek engine — same
// result set, order, labels and match nodes, the same NoMatchError
// terms, bit-identical ranking scores including tie order, and ranked
// pages (SearchRankedPageWAND) identical to the monolithic RankPage
// window, total included, for every tested limit/offset.
func TestShardedSearchEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	trees := 30
	queriesPerTree := 10
	for ti := 0; ti < trees; ti++ {
		doc := randomDoc(r, vocab)
		root := xmltree.MustParseString(doc)
		mono := xseek.NewParallel(root)
		for _, k := range []int{1, 2, 8} {
			sharded := Build(root, k)
			for qi := 0; qi < queriesPerTree; qi++ {
				n := r.Intn(3) + 1
				terms := make([]string, n)
				for i := range terms {
					terms[i] = vocab[r.Intn(len(vocab))]
				}
				query := strings.Join(terms, " ")

				want, wantErr := mono.Search(query)
				got, gotErr := sharded.Search(query)
				if !sameError(wantErr, gotErr) {
					t.Fatalf("tree %d K=%d query %q: err %v vs %v\ndoc: %s", ti, k, query, gotErr, wantErr, doc)
				}
				if resultKey(got) != resultKey(want) {
					t.Fatalf("tree %d K=%d query %q:\n got  %s\n want %s\ndoc: %s",
						ti, k, query, resultKey(got), resultKey(want), doc)
				}
				if wantErr != nil {
					continue
				}

				wantRanked := mono.RankResults(want, query)
				gotRanked := sharded.RankResults(got, query)
				if rankedKey(gotRanked) != rankedKey(wantRanked) {
					t.Fatalf("tree %d K=%d query %q ranked:\n got  %s\n want %s",
						ti, k, query, rankedKey(gotRanked), rankedKey(wantRanked))
				}

				for _, opts := range []xseek.SearchOptions{
					{Limit: 1}, {Limit: 2}, {Limit: 3, Offset: 1},
					{Limit: 2, Offset: 2}, {Limit: 100}, {Offset: 1},
				} {
					wantPage := mono.RankPage(want, query, opts)
					gotPage, gotTotal, _, err := sharded.SearchRankedPageWAND(query, opts)
					if err != nil {
						t.Fatalf("tree %d K=%d query %q page %+v: %v", ti, k, query, opts, err)
					}
					if rankedKey(gotPage) != rankedKey(wantPage) || gotTotal != len(want) {
						t.Fatalf("tree %d K=%d query %q page %+v:\n got  %s (total %d)\n want %s (total %d)",
							ti, k, query, opts, rankedKey(gotPage), gotTotal, rankedKey(wantPage), len(want))
					}
				}
			}
		}
	}
}

// sameError compares the search error surface the serving layers rely
// on: both nil, or both the same NoMatchError terms, or both the same
// message.
func sameError(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	var na, nb *index.NoMatchError
	if errors.As(a, &na) != errors.As(b, &nb) {
		return false
	}
	if na != nil {
		return fmt.Sprint(na.Terms) == fmt.Sprint(nb.Terms)
	}
	return a.Error() == b.Error()
}
