package update

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// TestLiveBoundsAdmissible checks the composed block-max bounds
// directly, the way the index's own bounds test checks one list: after
// random adds and removes on a monolithic base and on sharded bases at
// K ∈ {2, 8}, the live view's bound cursor, queried at every live node
// in document order, must dominate the term's true tf on the composite
// list. Page equality catches a bad bound only when it changes a page;
// the ranked consumer's pruning rests on this invariant everywhere.
// The root is exempt by contract. The base corpus nests its products
// in one <shelf> wrapper, so on a sharded base the spine holds a
// non-root node whose subtree spans every base part; removals take
// added entities (top-level entries past the banner and the shelf).
func TestLiveBoundsAdmissible(t *testing.T) {
	terms := append([]string{"quality", "product", "review", "name", "title", "model3"}, equivVocab...)
	for _, k := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(40 + k)))
			var b strings.Builder
			b.WriteString("<catalog><banner><name>welcome</name></banner><shelf>")
			for i := 0; i < 12; i++ {
				b.WriteString(randomProduct(rng, i))
			}
			b.WriteString("</shelf></catalog>")
			origin := xmltree.MustParseString(b.String())
			live := Wrap(xseek.NewParallel(origin))
			if k > 1 {
				live = wrapShards(origin, k)
			}
			serial := 1000
			for op := 0; op < 30; op++ {
				if top := live.view().top; rng.Intn(3) > 0 || len(top) < 4 {
					if _, err := live.AddEntity(xmltree.MustParseString(randomProduct(rng, serial))); err != nil {
						t.Fatal(err)
					}
					serial++
				} else if err := live.RemoveEntity(dewey.New(top[2+rng.Intn(len(top)-2)].ord)); err != nil {
					t.Fatal(err)
				}
				if op%5 == 4 {
					checkBoundsAdmissible(t, fmt.Sprintf("op %d", op), live.view(), terms)
				}
			}
		})
	}
}

func checkBoundsAdmissible(t *testing.T, step string, s *state, terms []string) {
	t.Helper()
	var walk func(n *xmltree.Node, visit func(*xmltree.Node))
	walk = func(n *xmltree.Node, visit func(*xmltree.Node)) {
		visit(n)
		for _, c := range n.Children {
			walk(c, visit)
		}
	}
	for _, term := range terms {
		cur, ok := s.Bound(term)
		if !ok {
			t.Fatalf("%s: Bound(%q) reports no metadata on current-format indexes", step, term)
		}
		counter := index.NewCounter(s.List(term))
		walk(s.root, func(n *xmltree.Node) {
			if len(n.ID) == 0 {
				return
			}
			if tf, ub := counter.CountUnder(n.ID), cur.MaxTFFrom(n.ID); tf > ub {
				t.Fatalf("%s: term %q node %v: tf %d exceeds bound %d", step, term, n.ID, tf, ub)
			}
		})
	}
}

// TestCleanStateReadsBase pins which posting view a read runs over. A
// state with nothing pending over a monolithic base reads the base
// engine's own index: from construction until the first write, and
// again after each compaction. A written state reads the composite
// view, so a write is visible at once, and a sharded base always reads
// the composite view.
func TestCleanStateReadsBase(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	origin := xmltree.MustParseString(corpusXML(rng, 10))
	x := xseek.NewParallel(origin)
	live := Wrap(x)
	found := func(step string, want int) {
		t.Helper()
		rs, err := searchOf(live, "model100")
		if want == 0 && err == nil || want > 0 && (err != nil || len(rs) != want) {
			t.Fatalf("%s: model100 gave %d results, %v; want %d", step, len(rs), err, want)
		}
	}
	if live.view().cleanBase() != x {
		t.Fatal("a never-written engine does not read its base index")
	}
	found("construction", 0)
	id, err := live.AddEntity(xmltree.MustParseString(randomProduct(rng, 100)))
	if err != nil {
		t.Fatal(err)
	}
	if live.view().cleanBase() != nil {
		t.Fatal("a written engine reads its base index")
	}
	found("add", 1)
	if err := live.Compact(); err != nil {
		t.Fatal(err)
	}
	if b := live.view().cleanBase(); b == nil || b == x {
		t.Fatal("a compacted engine does not read its new base index")
	}
	found("compaction", 1)
	if err := live.RemoveEntity(id); err != nil {
		t.Fatal(err)
	}
	found("remove", 0)

	// A base held as parts reads through the composed view until its
	// first compaction folds it into one index; from then on it reads
	// that index like any monolithic base.
	parts := wrapShards(origin, 2)
	if parts.view().cleanBase() != nil || parts.BaseXseek() != nil {
		t.Fatal("a multi-part base reads a monolithic index")
	}
	if _, err := parts.AddEntity(xmltree.MustParseString(randomProduct(rng, 101))); err != nil {
		t.Fatal(err)
	}
	if err := parts.Compact(); err != nil {
		t.Fatal(err)
	}
	if b := parts.view().cleanBase(); b == nil || b != parts.BaseXseek() || len(parts.view().parts) != 1 {
		t.Fatal("a compacted multi-part base does not read one index")
	}
}
