package xseek

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

// wandTestCorpus builds n sibling entities with deliberately varied
// term frequencies: a block of heavy entities (several occurrences of
// both query terms) scattered through a long tail of light ones, so a
// small top-k settles early and the block-max bounds have something to
// prune. heavyEvery controls the scatter; heavyEvery=0 front-loads all
// heavy entities at the start of document order.
func wandTestCorpus(n, heavyEvery int) *Engine {
	var b strings.Builder
	b.WriteString("<catalog>")
	for i := 0; i < n; i++ {
		heavy := (heavyEvery == 0 && i < n/20+1) || (heavyEvery > 0 && i%heavyEvery == 0)
		b.WriteString("<item>")
		reps := 1
		if heavy {
			reps = 6
		}
		for r := 0; r < reps; r++ {
			fmt.Fprintf(&b, "<f%d>alpha beta</f%d>", r, r)
		}
		if i%3 == 0 {
			b.WriteString("<tag>gamma</tag>")
		}
		fmt.Fprintf(&b, "<desc>filler%d</desc>", i%13)
		b.WriteString("</item>")
	}
	b.WriteString("</catalog>")
	return NewParallel(xmltree.MustParseString(b.String()))
}

// requireSamePages fails unless the two ranked pages are bit-identical:
// same length, same node IDs, same labels, and scores equal down to the
// last float64 bit.
func requireSamePages(t *testing.T, ctx string, got, want []*RankedResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: page has %d results, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if !got[i].Node.ID.Equal(want[i].Node.ID) {
			t.Fatalf("%s: result %d = %v, want %v", ctx, i, got[i].Node.ID, want[i].Node.ID)
		}
		if got[i].Label != want[i].Label {
			t.Fatalf("%s: result %d label = %q, want %q", ctx, i, got[i].Label, want[i].Label)
		}
		if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: result %d score bits %x, want %x (scores %v vs %v)",
				ctx, i, math.Float64bits(got[i].Score), math.Float64bits(want[i].Score),
				got[i].Score, want[i].Score)
		}
	}
}

// eagerRankedPage is the reference every ranked path is checked
// against: the eager Search + RankPage pipeline and its exact total.
func eagerRankedPage(e *Engine, query string, opts SearchOptions) ([]*RankedResult, int, error) {
	results, err := e.Search(query)
	if err != nil {
		return nil, 0, err
	}
	return e.RankPage(results, query, opts), len(results), nil
}

// TestWANDExactBitIdentical: the exact-mode score-bounded page must be
// bit-identical to the eager ranking for every window shape, including
// paging envelopes, while actually pruning on small windows.
func TestWANDExactBitIdentical(t *testing.T) {
	for _, scatter := range []int{0, 7} {
		e := wandTestCorpus(900, scatter)
		for _, query := range []string{"alpha beta", "alpha gamma", "beta"} {
			for _, k := range []int{1, 2, 8} {
				for _, off := range []int{0, 3} {
					ctx := fmt.Sprintf("scatter=%d q=%q k=%d off=%d", scatter, query, k, off)
					opts := SearchOptions{Limit: k, Offset: off}
					eRes, eTotal, err := eagerRankedPage(e, query, opts)
					if err != nil {
						t.Fatalf("%s: eager: %v", ctx, err)
					}
					wRes, wTotal, st, err := e.SearchRankedPageWAND(query, opts)
					if err != nil {
						t.Fatalf("%s: wand: %v", ctx, err)
					}
					if eTotal != wTotal {
						t.Fatalf("%s: totals eager=%d wand=%d", ctx, eTotal, wTotal)
					}
					requireSamePages(t, ctx+" wand-vs-eager", wRes, eRes)
					if !st.Bounded {
						t.Fatalf("%s: WANDStats.Bounded = false, want bounds active", ctx)
					}
					if st.Terminated {
						t.Fatalf("%s: exact mode reported Terminated", ctx)
					}
				}
			}
		}
	}

	// The front-loaded corpus must actually prune a small window.
	e := wandTestCorpus(900, 0)
	_, _, st, err := e.SearchRankedPageWAND("alpha beta", SearchOptions{Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st.Pruned == 0 {
		t.Fatal("front-loaded corpus, k=5: nothing pruned")
	}
	if st.BlocksSkipped == 0 {
		t.Fatal("front-loaded corpus, k=5: no blocks skipped")
	}
}

// TestWANDApproxPageExactTotalBounded: approximate mode may give up on
// the total — never on the page. The page must stay bit-identical to
// the exact ranking, and the total is either the exact one or
// StreamTotalUnknown (exactly when the consumer reports Terminated).
func TestWANDApproxPageExactTotalBounded(t *testing.T) {
	for _, scatter := range []int{0, 7} {
		e := wandTestCorpus(900, scatter)
		for _, k := range []int{1, 2, 8} {
			ctx := fmt.Sprintf("scatter=%d k=%d", scatter, k)
			exactRes, exactTotal, _, err := e.SearchRankedPageWAND("alpha beta", SearchOptions{Limit: k})
			if err != nil {
				t.Fatalf("%s: exact: %v", ctx, err)
			}
			aRes, aTotal, st, err := e.SearchRankedPageWAND("alpha beta", SearchOptions{Limit: k, Accuracy: AccuracyApprox})
			if err != nil {
				t.Fatalf("%s: approx: %v", ctx, err)
			}
			requireSamePages(t, ctx+" approx-vs-exact", aRes, exactRes)
			if st.Terminated {
				if aTotal != StreamTotalUnknown {
					t.Fatalf("%s: terminated but total = %d", ctx, aTotal)
				}
			} else if aTotal != exactTotal {
				t.Fatalf("%s: not terminated but total = %d, want %d", ctx, aTotal, exactTotal)
			}
		}
	}
	// The front-loaded shape must terminate early.
	e := wandTestCorpus(900, 0)
	_, total, st, err := e.SearchRankedPageWAND("alpha beta", SearchOptions{Limit: 5, Accuracy: AccuracyApprox})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Terminated || total != StreamTotalUnknown {
		t.Fatalf("front-loaded approx: Terminated=%v total=%d, want early stop", st.Terminated, total)
	}
}

// TestWANDPagePrefixConsistency is the paging property test over
// randomized corpora: for any K, the approximate page must be exactly
// the first K entries of the full exact ranking (a prefix-consistent
// subset), and consecutive windows must concatenate to it — the
// approximation only ever touches the total.
func TestWANDPagePrefixConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 12; trial++ {
		n := 120 + r.Intn(500)
		var b strings.Builder
		b.WriteString("<catalog>")
		for i := 0; i < n; i++ {
			b.WriteString("<item>")
			for k := 0; k < 1+r.Intn(6); k++ {
				fmt.Fprintf(&b, "<f%d>alpha</f%d>", k, k)
			}
			if r.Intn(3) > 0 {
				b.WriteString("<g>beta</g>")
			}
			fmt.Fprintf(&b, "<h>w%d</h>", r.Intn(9))
			b.WriteString("</item>")
		}
		b.WriteString("</catalog>")
		e := NewParallel(xmltree.MustParseString(b.String()))

		// The full exact ranking, eager — the reference ordering.
		full, total, err := eagerRankedPage(e, "alpha beta", SearchOptions{})
		if err != nil {
			t.Fatalf("trial %d: eager full: %v", trial, err)
		}
		for _, acc := range []Accuracy{AccuracyExact, AccuracyApprox} {
			for _, k := range []int{1, 3, 10} {
				page, pTotal, _, err := e.SearchRankedPageWAND("alpha beta", SearchOptions{Limit: k, Accuracy: acc})
				if err != nil {
					t.Fatalf("trial %d acc=%d k=%d: %v", trial, acc, k, err)
				}
				want := full
				if k < len(want) {
					want = want[:k]
				}
				requireSamePages(t, fmt.Sprintf("trial %d acc=%d k=%d prefix", trial, acc, k), page, want)
				if pTotal != total && pTotal != StreamTotalUnknown {
					t.Fatalf("trial %d acc=%d k=%d: total %d, want %d or unknown", trial, acc, k, pTotal, total)
				}
				if acc == AccuracyExact && pTotal != total {
					t.Fatalf("trial %d k=%d: exact total %d, want %d", trial, k, pTotal, total)
				}
				// Two consecutive half-windows must tile the same prefix.
				if k > 1 {
					lo := k / 2
					tail, _, _, err := e.SearchRankedPageWAND("alpha beta", SearchOptions{Limit: k - lo, Offset: lo, Accuracy: acc})
					if err != nil {
						t.Fatalf("trial %d acc=%d k=%d offset window: %v", trial, acc, k, err)
					}
					wantTail := want
					if lo < len(wantTail) {
						wantTail = wantTail[lo:]
					} else {
						wantTail = nil
					}
					requireSamePages(t, fmt.Sprintf("trial %d acc=%d k=%d tail", trial, acc, k), tail, wantTail)
				}
			}
		}
	}
}

// TestWANDUnboundedWindowFallsBack: with no window to prune for, the
// consumer must run unpruned and report Bounded=false.
func TestWANDUnboundedWindowFallsBack(t *testing.T) {
	e := wandTestCorpus(300, 5)
	wRes, wTotal, st, err := e.SearchRankedPageWAND("alpha beta", SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Bounded || st.Pruned != 0 {
		t.Fatalf("unbounded window: stats = %+v, want unbounded passthrough", st)
	}
	eRes, eTotal, err := eagerRankedPage(e, "alpha beta", SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if wTotal != eTotal {
		t.Fatalf("unbounded totals: wand %d, eager %d", wTotal, eTotal)
	}
	requireSamePages(t, "unbounded", wRes, eRes)
}

// TestSharedThresholdMonotone pins the lock-free threshold's contract:
// Raise is monotone max over non-negative scores.
func TestSharedThresholdMonotone(t *testing.T) {
	var s SharedThreshold
	if s.Load() != 0 {
		t.Fatalf("fresh threshold = %v", s.Load())
	}
	s.Raise(1.5)
	s.Raise(0.5) // lower: no-op
	if got := s.Load(); got != 1.5 {
		t.Fatalf("after Raise(1.5), Raise(0.5): %v", got)
	}
	s.Raise(2.25)
	if got := s.Load(); got != 2.25 {
		t.Fatalf("after Raise(2.25): %v", got)
	}
	s.Raise(0) // zero: no-op by contract
	if got := s.Load(); got != 2.25 {
		t.Fatalf("after Raise(0): %v", got)
	}
}
