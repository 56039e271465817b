package table

import (
	"fmt"
	"html"
	"io"
	"sort"
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
	t := &Table{}
	typeSet := make(map[feature.Type]bool)
	maxValues := 0
	for _, d := range dfss {
		t.Labels = append(t.Labels, d.Stats.Label)
		for tp, depth := range d.Sel {
			typeSet[tp] = true
			maxValues += depth
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
	t.Rows = make([]Row, len(types))
	cells := make([]Cell, len(types)*len(dfss))
	values := make([]CellValue, 0, maxValues)
	for ri, tp := range types {
		row := cells[ri*len(dfss) : (ri+1)*len(dfss) : (ri+1)*len(dfss)]
		for ci, d := range dfss {
			depth, ok := d.Sel[tp]
			row[ci].Known = ok
			if !ok {
				continue
			}
			vals := d.Stats.ValuesOf(tp)
			if depth > len(vals) {
				depth = len(vals)
			}
			if depth == 0 {
				continue
			}
			start := len(values)
			for _, vc := range vals[:depth] {
				values = append(values, CellValue{
					Value: vc.Value,
					Rel:   d.Stats.Rel(tp, vc.Value),
					Count: vc.Count,
				})
			}
			row[ci].Values = values[start:len(values):len(values)]
		}
		t.Rows[ri] = Row{Type: tp, Cells: row}
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
