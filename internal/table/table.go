package table

import (
	"fmt"
	"html"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/feature"
)

// Cell is one table cell: the values a DFS shows for a feature type.
type Cell struct {
	// Known is false when the result's DFS does not select the type —
	// the paper's "null means unknown" semantics.
	Known bool
	// Values are the shown values with their relative frequencies.
	Values []CellValue
}

type CellValue struct {
	Value string
	Rel   float64 // relative frequency in [0,1]
	Count int     // raw occurrence count
}

// Row is one comparison row: a feature type across all results.
type Row struct {
	Type  feature.Type
	Cells []Cell
}

// Table is a rendered comparison of several DFSs.
type Table struct {
	Labels []string
	Rows   []Row
}

// Build assembles the comparison table for a set of DFSs. Rows are
// ordered by entity, then by maximum significance across results, so
// the most characteristic types come first. Every row's cells share
// one backing array, and every cell's values another: a table is built
// per comparison request.
func Build(dfss []*core.DFS) *Table {
	t := &Table{Labels: make([]string, 0, len(dfss))}
	maxValues := 0
	for _, d := range dfss {
		t.Labels = append(t.Labels, d.Stats.Label)
		maxValues += d.Sel.Size()
	}
	var selBuf [256]core.SelectedCell
	sel := core.SelectedCells(dfss, selBuf[:0])
	// One row per selected type, its cells sel[lo:hi]. Its significance
	// is the type's largest total in any result, selected or not: one
	// walk of each result's columns along the rows, which are in
	// Type.Less order until sorted.
	type span struct{ lo, hi, sig int }
	var rowBuf [128]span
	rows := rowBuf[:0]
	for i := range sel {
		if i == 0 || sel[i].Col.Type != sel[i-1].Col.Type {
			rows = append(rows, span{lo: i})
		}
		rows[len(rows)-1].hi = i + 1
	}
	for _, d := range dfss {
		cols, c := d.Stats.Columns(), 0
		for r := range rows {
			tp := sel[rows[r].lo].Col.Type
			for c < len(cols) && cols[c].Type.Less(tp) {
				c++
			}
			if c < len(cols) && cols[c].Type == tp {
				rows[r].sig = max(rows[r].sig, cols[c].Total())
			}
		}
	}
	// Stable, so attribute order breaks significance ties.
	slices.SortStableFunc(rows, func(a, b span) int {
		if c := strings.Compare(sel[a.lo].Col.Type.Entity, sel[b.lo].Col.Type.Entity); c != 0 {
			return c
		}
		return b.sig - a.sig
	})

	k := len(dfss)
	t.Rows = make([]Row, len(rows))
	cells := make([]Cell, len(rows)*k)
	values := make([]CellValue, 0, maxValues)
	for ri, r := range rows {
		row := cells[ri*k : (ri+1)*k : (ri+1)*k]
		for _, c := range sel[r.lo:r.hi] {
			row[c.Result].Known = true
			vals := c.Col.Values()
			depth := min(int(c.Depth), len(vals))
			if depth <= 0 {
				continue
			}
			group := float64(c.Col.Group())
			lo := len(values)
			for _, vc := range vals[:depth] {
				values = append(values, CellValue{Value: vc.Value, Rel: float64(vc.Count) / group, Count: vc.Count})
			}
			row[c.Result].Values = values[lo:len(values):len(values)]
		}
		t.Rows[ri] = Row{Type: sel[r.lo].Col.Type, Cells: row}
	}
	return t
}

// cellText renders a cell for the text table.
func cellText(c Cell) string {
	if !c.Known {
		return "unknown"
	}
	parts := make([]string, len(c.Values))
	for i, v := range c.Values {
		if v.Rel >= 0.999 {
			parts[i] = v.Value
		} else {
			parts[i] = fmt.Sprintf("%s (%.0f%%)", v.Value, v.Rel*100)
		}
	}
	return strings.Join(parts, ", ")
}

// WriteText renders an aligned plain-text comparison table.
func (t *Table) WriteText(w io.Writer) error {
	headers := append([]string{"feature"}, t.Labels...)
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	cells := make([][]string, len(t.Rows))
	for ri, row := range t.Rows {
		line := make([]string, len(headers))
		line[0] = row.Type.String()
		for ci, c := range row.Cells {
			line[ci+1] = cellText(c)
		}
		for i, s := range line {
			if len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
		cells[ri] = line
	}
	var b strings.Builder
	writeLine := func(parts []string) {
		for i, p := range parts {
			if i > 0 {
				b.WriteString("  | ")
			}
			b.WriteString(p)
			b.WriteString(strings.Repeat(" ", widths[i]-len(p)))
		}
		b.WriteByte('\n')
	}
	writeLine(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeLine(sep)
	for _, line := range cells {
		writeLine(line)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Text returns the plain-text rendering.
func (t *Table) Text() string {
	var b strings.Builder
	_ = t.WriteText(&b)
	return b.String()
}

// WriteHTML renders the table as a self-contained HTML fragment
// (<table> element) for the web demo. It writes piece by piece, so an
// unbuffered w should be wrapped in a bufio.Writer; the first write
// error stops the rendering and is returned.
func (t *Table) WriteHTML(w io.Writer) error {
	hw := &errWriter{w: w}
	hw.str("<table class=\"xsact-comparison\">\n<thead><tr><th>feature</th>")
	for _, l := range t.Labels {
		hw.str("<th>")
		hw.str(html.EscapeString(l))
		hw.str("</th>")
	}
	hw.str("</tr></thead>\n<tbody>\n")
	var num []byte
	for _, row := range t.Rows {
		// Type.String() escaped, without building it: ':' needs no escape.
		hw.str("<tr><td>")
		hw.str(html.EscapeString(row.Type.Entity))
		hw.str(":")
		hw.str(html.EscapeString(row.Type.Attribute))
		hw.str("</td>")
		for _, c := range row.Cells {
			if !c.Known {
				hw.str(`<td class="unknown">unknown</td>`)
				continue
			}
			hw.str("<td>")
			for i, v := range c.Values {
				if i > 0 {
					hw.str("<br>")
				}
				hw.str(html.EscapeString(v.Value))
				if v.Rel < 0.999 {
					// " (%.0f%%)" of the relative frequency, without fmt.
					num = append(num[:0], " ("...)
					num = strconv.AppendFloat(num, v.Rel*100, 'f', 0, 64)
					num = append(num, "%)"...)
					hw.bytes(num)
				}
			}
			hw.str("</td>")
		}
		hw.str("</tr>\n")
	}
	hw.str("</tbody>\n</table>\n")
	return hw.err
}

// errWriter latches the first write error and drops later writes.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) str(s string) {
	if e.err == nil {
		_, e.err = io.WriteString(e.w, s)
	}
}

func (e *errWriter) bytes(p []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(p)
	}
}

// HTML returns the HTML rendering.
func (t *Table) HTML() string {
	var b strings.Builder
	_ = t.WriteHTML(&b)
	return b.String()
}
