package table

import (
	"fmt"
	"html"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/feature"
	"repro/internal/xseek"
)

// referenceBuild is the straightforward Build — one allocation per
// row, cell and value — kept as the oracle for the pooled one.
func referenceBuild(dfss []*core.DFS) *Table {
	t := &Table{}
	typeSet := make(map[feature.Type]bool)
	for _, d := range dfss {
		t.Labels = append(t.Labels, d.Stats.Label)
		for tp := range d.Sel {
			typeSet[tp] = true
		}
	}
	types := make([]feature.Type, 0, len(typeSet))
	for tp := range typeSet {
		types = append(types, tp)
	}
	maxSig := func(tp feature.Type) int {
		m := 0
		for _, d := range dfss {
			if s := d.Stats.TypeTotal(tp); s > m {
				m = s
			}
		}
		return m
	}
	sort.Slice(types, func(i, j int) bool {
		if types[i].Entity != types[j].Entity {
			return types[i].Entity < types[j].Entity
		}
		si, sj := maxSig(types[i]), maxSig(types[j])
		if si != sj {
			return si > sj
		}
		return types[i].Attribute < types[j].Attribute
	})
	for _, tp := range types {
		row := Row{Type: tp}
		for _, d := range dfss {
			depth, ok := d.Sel[tp]
			cell := Cell{Known: ok}
			if ok {
				vals := d.Stats.ValuesOf(tp)
				if depth > len(vals) {
					depth = len(vals)
				}
				for _, vc := range vals[:depth] {
					cell.Values = append(cell.Values, CellValue{
						Value: vc.Value,
						Rel:   d.Stats.Rel(tp, vc.Value),
						Count: vc.Count,
					})
				}
			}
			row.Cells = append(row.Cells, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// referenceHTML is the fmt-based WriteHTML, kept as the oracle for the
// fmt-free one.
func referenceHTML(t *Table, w io.Writer) error {
	var b strings.Builder
	b.WriteString("<table class=\"xsact-comparison\">\n<thead><tr><th>feature</th>")
	for _, l := range t.Labels {
		fmt.Fprintf(&b, "<th>%s</th>", html.EscapeString(l))
	}
	b.WriteString("</tr></thead>\n<tbody>\n")
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "<tr><td>%s</td>", html.EscapeString(row.Type.String()))
		for _, c := range row.Cells {
			if !c.Known {
				b.WriteString(`<td class="unknown">unknown</td>`)
				continue
			}
			b.WriteString("<td>")
			for i, v := range c.Values {
				if i > 0 {
					b.WriteString("<br>")
				}
				if v.Rel >= 0.999 {
					b.WriteString(html.EscapeString(v.Value))
				} else {
					fmt.Fprintf(&b, "%s (%.0f%%)", html.EscapeString(v.Value), v.Rel*100)
				}
			}
			b.WriteString("</td>")
		}
		b.WriteString("</tr>\n")
	}
	b.WriteString("</tbody>\n</table>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// TestBuildAndHTMLMatchReferenceOnCorpus: on the comparisons of every
// movie query's top 5 and top 10 under both swap algorithms, plus the
// hand-built and escaping tables, Build equals the reference build with
// no slice sharing spare capacity, and WriteHTML is byte-identical to
// the reference renderer.
func TestBuildAndHTMLMatchReferenceOnCorpus(t *testing.T) {
	root := dataset.Movies(dataset.MoviesConfig{Seed: 1, Movies: 300})
	x := xseek.New(root)
	cases := [][]*core.DFS{twoDFSs()}
	pro := feature.Type{Entity: "e&", Attribute: "<a>"}
	esc := feature.NewStatsFromCounts(`<img src=x>`,
		map[string]int{"e&": 3},
		map[feature.Feature]int{{Type: pro, Value: `<script>`}: 2, {Type: pro, Value: `"q"`}: 1})
	cases = append(cases, []*core.DFS{{Stats: esc, Sel: core.Selection{pro: 2}}})
	for _, q := range dataset.MovieQueries() {
		rs, err := x.Search(q)
		if err != nil || len(rs) < 2 {
			continue
		}
		for _, k := range []int{5, 10} {
			top := rs
			if len(top) > k {
				top = top[:k]
			}
			stats := make([]*feature.Stats, len(top))
			for i, r := range top {
				stats[i] = feature.Extract(r.Node, x.Schema(), r.Label)
			}
			for _, alg := range []core.Algorithm{core.AlgSingleSwap, core.AlgMultiSwap} {
				cases = append(cases, core.Generate(alg, stats, core.Options{SizeBound: 10, Threshold: 0.1}))
			}
		}
	}
	if len(cases) < 10 {
		t.Fatalf("only %d comparisons built", len(cases))
	}
	for i, dfss := range cases {
		got, want := Build(dfss), referenceBuild(dfss)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: Build differs from the reference:\n got %+v\nwant %+v", i, got, want)
		}
		// Rows and cells share backing arrays; each slice is capped, so a
		// caller's append never writes into its neighbour.
		for _, row := range got.Rows {
			if cap(row.Cells) != len(row.Cells) {
				t.Fatalf("case %d: row %v cells have spare capacity %d", i, row.Type, cap(row.Cells)-len(row.Cells))
			}
			for _, c := range row.Cells {
				if cap(c.Values) != len(c.Values) {
					t.Fatalf("case %d: a %v cell has spare capacity %d", i, row.Type, cap(c.Values)-len(c.Values))
				}
			}
		}
		var ref strings.Builder
		if err := referenceHTML(want, &ref); err != nil {
			t.Fatal(err)
		}
		if html := got.HTML(); html != ref.String() {
			t.Fatalf("case %d: HTML differs from the reference:\n got %s\nwant %s", i, html, ref.String())
		}
	}
}
