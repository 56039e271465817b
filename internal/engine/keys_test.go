package engine

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// stringStatsKey and stringSelectionKey are the cache keys as they were
// first written, one string per Dewey ID; the one-buffer builders must
// reproduce them byte for byte.
func stringStatsKey(node *xmltree.Node, label string) string {
	return node.ID.String() + "\x00" + label
}

func stringSelectionKey(results []*xseek.Result, alg core.Algorithm, opts core.Options) string {
	var b strings.Builder
	b.WriteString(string(alg))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(opts.SizeBound))
	b.WriteByte('|')
	b.WriteString(strconv.FormatFloat(opts.Threshold, 'g', -1, 64))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(opts.MaxRounds))
	b.WriteByte('|')
	b.WriteString(strconv.FormatBool(opts.Pad))
	for _, r := range results {
		b.WriteByte('|')
		b.WriteString(r.Node.ID.String())
	}
	return b.String()
}

func TestCacheKeysMatchStringForm(t *testing.T) {
	root := dataset.Movies(dataset.MoviesConfig{Seed: 1})
	x := xseek.New(root)
	results := []*xseek.Result{{Node: root, Label: "the root"}}
	for _, q := range dataset.MovieQueries() {
		rs, err := x.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, rs...)
	}
	if len(results) < 50 {
		t.Fatalf("only %d results", len(results))
	}
	for _, r := range results {
		for _, label := range []string{r.Label, "", "a\x00b"} {
			if got, want := statsKey(r.Node, label), stringStatsKey(r.Node, label); got != want {
				t.Fatalf("stats key %q, string form %q", got, want)
			}
		}
	}
	options := []core.Options{
		core.Options{}.Normalized(),
		{SizeBound: 255, Threshold: 0.25, MaxRounds: 3, Pad: true},
		{SizeBound: 7, Threshold: 1e-7, MaxRounds: 0},
	}
	for n := 0; n <= len(results); n += 7 {
		// Long selections outgrow the key's stack buffer.
		for _, sel := range [][]*xseek.Result{results[:n], results[n:]} {
			for _, alg := range core.Algorithms() {
				for _, opts := range options {
					if got, want := selectionKey(sel, alg, opts), stringSelectionKey(sel, alg, opts); got != want {
						t.Fatalf("selection key %q, string form %q", got, want)
					}
				}
			}
		}
	}
}
