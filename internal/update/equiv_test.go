package update

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// The equivalence property: after ANY interleaving of adds, removes,
// and compactions, the live engine's Search / ranking / paging output
// is byte-identical (labels, rendered subtrees, score bits, paging
// envelopes, errors) to a from-scratch build over the same logical
// corpus — for a monolithic base and for sharded bases at K ∈ {2, 8}.

var equivVocab = []string{
	"gps", "camera", "zoom", "battery", "rugged", "trail", "alpine",
	"radio", "solar", "compass", "tent", "stove", "filter", "jacket",
}

// randomProduct builds an entity subtree with a guaranteed name leaf
// (so labels never fall back to Dewey IDs) and random keyword content.
func randomProduct(rng *rand.Rand, serial int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<product><name>model%d</name>", serial)
	fmt.Fprintf(&b, "<kind>%s</kind>", equivVocab[rng.Intn(len(equivVocab))])
	for r, n := 0, rng.Intn(3); r < n; r++ {
		// Reviews repeat, making them entities (and thus result roots);
		// the title keeps their labels independent of Dewey positions.
		fmt.Fprintf(&b, "<review><title>rev%d-%d</title><text>%s %s quality</text></review>",
			serial, r, equivVocab[rng.Intn(len(equivVocab))], equivVocab[rng.Intn(len(equivVocab))])
	}
	b.WriteString("</product>")
	return b.String()
}

// corpusXML builds the seed corpus: a non-entity banner child plus n
// products.
func corpusXML(rng *rand.Rand, n int) string {
	var b strings.Builder
	b.WriteString("<catalog><banner><name>welcome</name><slogan>grand opening sale</slogan></banner>")
	for i := 0; i < n; i++ {
		b.WriteString(randomProduct(rng, i))
	}
	b.WriteString("</catalog>")
	return b.String()
}

// cursorer is any executor's doc-order read path.
type cursorer interface {
	SearchStream(query string) (xseek.Cursor, error)
}

// searchOf drains e's doc-order cursor: its search result list.
func searchOf(e cursorer, query string) ([]*xseek.Result, error) {
	c, err := e.SearchStream(query)
	if err != nil {
		return nil, err
	}
	return xseek.Drain(c)
}

// rankWindow is the options' window of a full ranking.
func rankWindow(ranked []*xseek.RankedResult, opts xseek.SearchOptions) []*xseek.RankedResult {
	lo, hi := opts.Window(len(ranked))
	return ranked[lo:hi]
}

// coldExecutor is the from-scratch reference build.
type coldExecutor interface {
	cursorer
	RankResults(results []*xseek.Result, query string) []*xseek.RankedResult
	CleanQuery(query string) []string
	TotalNodes() int
	DocFreq(term string) int
}

// buildCold is the reference every live engine is held to: one index
// built from scratch over the same logical corpus, whatever layout the
// live engine's base has.
func buildCold(refKids []*xmltree.Node) coldExecutor {
	root := xmltree.NewElement("catalog")
	for _, c := range refKids {
		root.AppendChild(c.Clone())
	}
	root.AssignIDs(nil)
	return xseek.NewParallel(root)
}

// wrapShards wraps a K-shard partition's spine and shard indexes as a
// multi-part base: the layout engine.FromSharded serves.
func wrapShards(root *xmltree.Node, k int) *Engine {
	sh := shard.Build(root, k)
	return WrapParts(root, sh.Schema(), append([]*index.Index{sh.SpineIndex()}, sh.ShardIndexes()...))
}

// canonical serializes a result list into the byte-comparable form:
// label and rendered subtree per result (Dewey IDs are internal
// addresses and legitimately differ while deletions are pending, so
// they are not part of the logical output).
func canonical(results []*xseek.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d results\n", len(results))
	for _, r := range results {
		b.WriteString(r.Label)
		b.WriteString("\n")
		b.WriteString(xmltree.XMLString(r.Node))
		b.WriteString("\n")
	}
	return b.String()
}

func canonicalRanked(ranked []*xseek.RankedResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d ranked\n", len(ranked))
	for _, r := range ranked {
		fmt.Fprintf(&b, "%016x %s\n", math.Float64bits(r.Score), r.Label)
		b.WriteString(xmltree.XMLString(r.Node))
	}
	return b.String()
}

var equivQueries = []string{
	"gps", "camera zoom", "quality", "gps battery quality", "welcome",
	"grand opening", "model3", "zzzmissing", "gps zzzmissing", "",
}

var equivPages = []xseek.SearchOptions{
	{},
	{Limit: 3},
	{Limit: 3, Offset: 2},
	{Limit: 100, Offset: 0},
	{Offset: 1000},
}

// assertEquivalent compares every query's full output between the live
// engine and a cold rebuild.
func assertEquivalent(t *testing.T, step string, live *Engine, cold coldExecutor) {
	t.Helper()
	if lt, ct := live.TotalNodes(), cold.TotalNodes(); lt != ct {
		t.Fatalf("%s: TotalNodes %d, cold %d", step, lt, ct)
	}
	for _, term := range equivVocab {
		if ld, cd := live.DocFreq(term), cold.DocFreq(term); ld != cd {
			t.Fatalf("%s: DocFreq(%q) %d, cold %d", step, term, ld, cd)
		}
	}
	for _, q := range equivQueries {
		lr, lerr := searchOf(live, q)
		cr, cerr := searchOf(cold, q)
		if (lerr == nil) != (cerr == nil) || (lerr != nil && lerr.Error() != cerr.Error()) {
			t.Fatalf("%s: query %q errors differ: live %v, cold %v", step, q, lerr, cerr)
		}
		if lerr != nil {
			continue
		}
		if lc, cc := canonical(lr), canonical(cr); lc != cc {
			t.Fatalf("%s: query %q results differ:\nlive:\n%s\ncold:\n%s", step, q, lc, cc)
		}
		if lc, cc := live.CleanQuery(q), cold.CleanQuery(q); strings.Join(lc, " ") != strings.Join(cc, " ") {
			t.Fatalf("%s: query %q cleaned differ: %v vs %v", step, q, lc, cc)
		}
		lrr := live.RankResults(lr, q)
		crr := cold.RankResults(cr, q)
		for _, opts := range equivPages {
			lp, ltotal, _, err := live.SearchRankedPageWAND(q, opts)
			if err != nil {
				t.Fatalf("%s: query %q page %+v: %v", step, q, opts, err)
			}
			cp := rankWindow(crr, opts)
			if lc, cc := canonicalRanked(lp), canonicalRanked(cp); lc != cc || ltotal != len(cr) {
				t.Fatalf("%s: query %q page %+v ranked pages differ (total %d, cold %d):\nlive:\n%s\ncold:\n%s", step, q, opts, ltotal, len(cr), lc, cc)
			}
		}
		if lc, cc := canonicalRanked(lrr), canonicalRanked(crr); lc != cc {
			t.Fatalf("%s: query %q full rankings differ", step, q)
		}
	}
	// The lazy read paths must agree with the eager ones on the same
	// snapshot (and, transitively, with the cold rebuild).
	assertStreamEquivalent(t, step, live)
}

func TestLiveEquivalenceRandomInterleavings(t *testing.T) {
	for _, k := range []int{1, 2, 8} {
		k := k
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed*100 + int64(k)))
				xml := corpusXML(rng, 10)
				origin := xmltree.MustParseString(xml)

				var live *Engine
				if k > 1 {
					live = wrapShards(origin, k)
				} else {
					live = Wrap(xseek.NewParallel(origin))
				}

				// refKids mirrors the live top-level children 1:1 by
				// position; the cold reference is rebuilt from clones.
				ref := xmltree.MustParseString(xml)
				refKids := append([]*xmltree.Node{}, ref.ChildElements()...)
				liveOrds := make([]int, len(refKids))
				for i := range refKids {
					liveOrds[i] = i
				}

				serial := 1000
				assertEquivalent(t, "seed", live, buildCold(refKids))
				for op := 0; op < 14; op++ {
					step := fmt.Sprintf("seed %d op %d", seed, op)
					switch r := rng.Float64(); {
					case r < 0.45:
						frag := randomProduct(rng, serial)
						serial++
						id, err := live.AddEntity(xmltree.MustParseString(frag))
						if err != nil {
							t.Fatalf("%s: AddEntity: %v", step, err)
						}
						refKids = append(refKids, xmltree.MustParseString(frag))
						liveOrds = append(liveOrds, id[0])
						step += " add"
					case r < 0.80 && len(refKids) > 1:
						i := rng.Intn(len(refKids))
						if err := live.RemoveEntity([]int{liveOrds[i]}); err != nil {
							t.Fatalf("%s: RemoveEntity: %v", step, err)
						}
						refKids = append(refKids[:i], refKids[i+1:]...)
						liveOrds = append(liveOrds[:i], liveOrds[i+1:]...)
						step += " remove"
					default:
						if err := live.Compact(); err != nil {
							t.Fatalf("%s: Compact: %v", step, err)
						}
						// Compaction renumbers: live ordinals are compact
						// positional indices again.
						for i := range liveOrds {
							liveOrds[i] = i
						}
						step += " compact"
					}
					assertEquivalent(t, step, live, buildCold(refKids))
				}
				// A final compaction must also converge exactly.
				if err := live.Compact(); err != nil {
					t.Fatal(err)
				}
				assertEquivalent(t, "final compact", live, buildCold(refKids))
			}
		})
	}
}

func TestLiveErrorsMatchCold(t *testing.T) {
	origin := xmltree.MustParseString(corpusXML(rand.New(rand.NewSource(7)), 4))
	live := Wrap(xseek.NewParallel(origin))
	if _, err := searchOf(live, ""); !errors.Is(err, xseek.ErrEmptyQuery) {
		t.Fatalf("empty query error = %v", err)
	}
	if err := live.RemoveEntity([]int{99}); err == nil {
		t.Fatal("removing an absent entity should fail")
	}
	if err := live.RemoveEntity([]int{0, 1}); err == nil {
		t.Fatal("removing a non-top-level ID should fail")
	}
	if _, err := live.AddEntity(nil); err == nil {
		t.Fatal("adding nil should fail")
	}
	if _, err := live.AddEntity(xmltree.NewText("loose")); err == nil {
		t.Fatal("adding a text node should fail")
	}
	// Removing the same entity twice: second attempt fails.
	if err := live.RemoveEntity([]int{1}); err != nil {
		t.Fatal(err)
	}
	if err := live.RemoveEntity([]int{1}); err == nil {
		t.Fatal("double remove should fail")
	}
}
