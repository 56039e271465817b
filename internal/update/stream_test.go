package update

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// assertStreamEquivalent verifies the live streamed read paths against
// the live eager ones on the same snapshot: the doc-order cursor
// drained must equal Search, and the ranked page must be bit-identical
// (scores, labels, total) to RankPage over the eager results. Called from assertEquivalent, so it runs under every
// interleaving of adds, removes, and compactions the equivalence suite
// generates, for monolithic and sharded bases alike.
func assertStreamEquivalent(t *testing.T, step string, live *Engine) {
	t.Helper()
	for _, q := range equivQueries {
		er, eerr := live.Search(q)
		sc, serr := live.SearchStream(q)
		if (eerr == nil) != (serr == nil) || (eerr != nil && eerr.Error() != serr.Error()) {
			t.Fatalf("%s: query %q stream errors differ: eager %v, stream %v", step, q, eerr, serr)
		}
		if eerr != nil {
			continue
		}
		var sr []*xseek.Result
		for {
			r, ok := sc.Next()
			if !ok {
				break
			}
			sr = append(sr, r)
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("%s: query %q stream failed: %v", step, q, err)
		}
		if lc, cc := canonical(sr), canonical(er); lc != cc {
			t.Fatalf("%s: query %q streamed results differ:\nstream:\n%s\neager:\n%s", step, q, lc, cc)
		}
		for _, opts := range equivPages {
			want := live.RankPage(er, q, opts)
			// The score-bounded path over the live composite (delta ⊕
			// base, tombstones applied): exact mode must stay
			// bit-identical under every interleaving, approximate mode
			// may only degrade the total.
			wgot, wtotal, wst, err := live.SearchRankedPageWAND(q, opts)
			if err != nil {
				t.Fatalf("%s: query %q opts %+v wand ranked failed: %v", step, q, opts, err)
			}
			if wst.Terminated {
				t.Fatalf("%s: query %q opts %+v exact wand terminated", step, q, opts)
			}
			if wtotal != len(er) {
				t.Fatalf("%s: query %q opts %+v wand total %d, want %d", step, q, opts, wtotal, len(er))
			}
			if lc, cc := canonicalRanked(wgot), canonicalRanked(want); lc != cc {
				t.Fatalf("%s: query %q opts %+v wand ranked differs:\nwand:\n%s\neager:\n%s",
					step, q, opts, lc, cc)
			}
			aopts := opts
			aopts.Accuracy = xseek.AccuracyApprox
			agot, atotal, ast, err := live.SearchRankedPageWAND(q, aopts)
			if err != nil {
				t.Fatalf("%s: query %q opts %+v approx wand failed: %v", step, q, opts, err)
			}
			if atotal != len(er) && atotal != xseek.StreamTotalUnknown {
				t.Fatalf("%s: query %q opts %+v approx wand total %d, want %d or unknown",
					step, q, opts, atotal, len(er))
			}
			if atotal == xseek.StreamTotalUnknown && !ast.Terminated {
				t.Fatalf("%s: query %q opts %+v approx wand unknown total without Terminated", step, q, opts)
			}
			if lc, cc := canonicalRanked(agot), canonicalRanked(want); lc != cc {
				t.Fatalf("%s: query %q opts %+v approx wand page differs:\nwand:\n%s\neager:\n%s",
					step, q, opts, lc, cc)
			}
		}
	}
}

// TestStreamSnapshotSurvivesWrites: a cursor opened before writes keeps
// streaming its epoch's answer — identical to the eager result set
// captured at open time — while adds, removes, and a compaction land.
func TestStreamSnapshotSurvivesWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	live := Wrap(xseek.NewParallel(xmltree.MustParseString(corpusXML(rng, 12))))
	before, err := live.Search("quality")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := live.SearchStream("quality")
	if err != nil {
		t.Fatal(err)
	}
	// Interleave pulls with writes that change the logical corpus.
	var got []*xseek.Result
	for i := 0; ; i++ {
		r, ok := sc.Next()
		if !ok {
			break
		}
		got = append(got, r)
		switch i {
		case 0:
			if _, err := live.AddEntity(xmltree.MustParseString(randomProduct(rng, 500))); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := live.RemoveEntity([]int{1}); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := live.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lc, cc := canonical(got), canonical(before); lc != cc {
		t.Fatalf("stream diverged from its snapshot:\nstream:\n%s\nsnapshot:\n%s", lc, cc)
	}
}

// TestConcurrentStreamsDuringWrites is the race-detector stress: many
// goroutines holding open streamed cursors (doc-order and ranked)
// while writers add, remove, and compact. Every cursor must drain
// without error and deliver an internally consistent snapshot (labels
// unique, document order strictly increasing emission).
func TestConcurrentStreamsDuringWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	live := Wrap(xseek.NewParallel(xmltree.MustParseString(corpusXML(rng, 16))))

	const readers, writes = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(33))
		serial := 2000
		for i := 0; i < writes; i++ {
			switch {
			case i%7 == 6:
				if err := live.Compact(); err != nil {
					errs <- fmt.Errorf("compact: %w", err)
					return
				}
			case i%3 == 0:
				// Remove a random live top-level entity, tolerating races
				// on already-removed ordinals.
				if root := live.Root(); len(root.Children) > 1 {
					victim := root.Children[wrng.Intn(len(root.Children))]
					_ = live.RemoveEntity(victim.ID)
				}
			default:
				serial++
				if _, err := live.AddEntity(xmltree.MustParseString(randomProduct(wrng, serial))); err != nil {
					errs <- fmt.Errorf("add: %w", err)
					return
				}
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			queries := []string{"quality", "gps", "camera zoom", "gps battery"}
			for i := 0; i < 30; i++ {
				q := queries[(r+i)%len(queries)]
				if i%2 == 0 {
					sc, err := live.SearchStream(q)
					if err != nil {
						continue // all terms may be missing mid-churn
					}
					var prev *xseek.Result
					seen := make(map[string]bool)
					for {
						res, ok := sc.Next()
						if !ok {
							break
						}
						if prev != nil && prev.Node.ID.Compare(res.Node.ID) >= 0 {
							errs <- fmt.Errorf("reader %d: doc order violated: %v then %v", r, prev.Node.ID, res.Node.ID)
							return
						}
						if seen[res.Node.ID.String()] {
							errs <- fmt.Errorf("reader %d: duplicate entity %v", r, res.Node.ID)
							return
						}
						seen[res.Node.ID.String()] = true
						prev = res
					}
					if err := sc.Err(); err != nil {
						errs <- fmt.Errorf("reader %d: stream error: %w", r, err)
						return
					}
				} else {
					if _, total, _, err := live.SearchRankedPageWAND(q, xseek.SearchOptions{Limit: 5}); err == nil && total < 0 {
						errs <- fmt.Errorf("reader %d: negative streamed total %d", r, total)
						return
					}
				}
			}
		}(r)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
