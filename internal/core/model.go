package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/feature"
)

// DefaultThreshold is the paper's empirically chosen differentiation
// threshold: two relative frequencies differ if they are more than 10%
// (of the smaller one) apart.
const DefaultThreshold = 0.10

// DefaultSizeBound is a reasonable default for the per-result DFS size
// limit L when the user does not specify one.
const DefaultSizeBound = 10

// MaxSizeBound caps L: the generators keep value depths in bytes, and
// a table of more than 255 features per result summarizes nothing.
const MaxSizeBound = 255

// Options configures DFS generation.
type Options struct {
	// SizeBound is L, the maximum number of features per DFS.
	// Zero selects DefaultSizeBound; values above MaxSizeBound are
	// capped.
	SizeBound int
	// Threshold is x: the relative-difference fraction above which two
	// frequencies of the same feature differentiate two results.
	// Zero selects DefaultThreshold.
	Threshold float64
	// MaxRounds bounds the coordinate-ascent rounds; zero means no
	// bound (the algorithms terminate anyway because total DoD is a
	// bounded integer that strictly increases every accepted step).
	MaxRounds int
	// Pad, when true, fills any leftover budget with the most
	// significant remaining features after optimization. Padding never
	// lowers DoD (DoD is monotone under selection growth) and makes
	// the comparison table a richer summary.
	Pad bool
}

func (o Options) normalized() Options { return o.Normalized() }

// Normalized resolves defaulted fields to their canonical values:
// non-positive SizeBound and Threshold become DefaultSizeBound and
// DefaultThreshold, SizeBound is capped at MaxSizeBound, and a
// negative MaxRounds becomes 0 (unbounded).
// Every generator applies it internally; caching layers use it so
// option sets that select the same behaviour share one cache key.
func (o Options) Normalized() Options {
	if o.SizeBound <= 0 {
		o.SizeBound = DefaultSizeBound
	}
	if o.SizeBound > MaxSizeBound {
		o.SizeBound = MaxSizeBound
	}
	if o.Threshold <= 0 {
		o.Threshold = DefaultThreshold
	}
	if o.MaxRounds < 0 {
		o.MaxRounds = 0
	}
	return o
}

// Selection maps each chosen feature type to its value depth d >= 1:
// the DFS contains the type's top-d values (by occurrence). A nil
// Selection is empty.
type Selection map[feature.Type]int

// Clone returns an independent copy.
func (s Selection) Clone() Selection {
	out := make(Selection, len(s))
	for t, d := range s {
		out[t] = d
	}
	return out
}

// Size returns the number of features selected: the sum of depths.
func (s Selection) Size() int {
	n := 0
	for _, d := range s {
		n += d
	}
	return n
}

// DFS is the Differentiation Feature Set of one result: its statistics
// plus the current selection.
type DFS struct {
	Stats *feature.Stats
	Sel   Selection
}

// Features returns the selected features in deterministic order
// (entities sorted, types by significance, values by occurrence).
func (d *DFS) Features() []feature.Feature {
	var out []feature.Feature
	cols := d.Stats.Columns()
	order, _ := d.Stats.Order()
	for _, c := range order {
		col := &cols[c]
		depth, vals := d.Sel[col.Type], col.Values()
		for i := 0; i < depth && i < len(vals); i++ {
			out = append(out, feature.Feature{Type: col.Type, Value: vals[i].Value})
		}
	}
	return out
}

// Size returns the number of features in the DFS.
func (d *DFS) Size() int { return d.Sel.Size() }

// Validate checks the validity desideratum: per entity, selected types
// must form a prefix of the significance order; per type, the depth
// must be between 1 and the number of values; and the total size must
// not exceed bound (ignored when bound <= 0).
func (d *DFS) Validate(bound int) error {
	perEntity := make(map[string][]feature.Type)
	for t, depth := range d.Sel {
		if !d.Stats.HasType(t) {
			return fmt.Errorf("core: selection contains type %s absent from result %q", t, d.Stats.Label)
		}
		if depth < 1 {
			return fmt.Errorf("core: type %s has depth %d < 1", t, depth)
		}
		if n := len(d.Stats.ValuesOf(t)); depth > n {
			return fmt.Errorf("core: type %s has depth %d > %d values", t, depth, n)
		}
		perEntity[t.Entity] = append(perEntity[t.Entity], t)
	}
	for e, selected := range perEntity {
		order := d.Stats.TypesOf(e)
		k := len(selected)
		if k > len(order) {
			return fmt.Errorf("core: entity %s selects %d of %d types", e, k, len(order))
		}
		inPrefix := make(map[feature.Type]bool, k)
		for _, t := range order[:k] {
			inPrefix[t] = true
		}
		for _, t := range selected {
			if !inPrefix[t] {
				return fmt.Errorf("core: entity %s: type %s selected out of significance order", e, t)
			}
		}
	}
	if bound > 0 && d.Sel.Size() > bound {
		return fmt.Errorf("core: DFS size %d exceeds bound %d", d.Sel.Size(), bound)
	}
	return nil
}

// relDiffer reports whether relative frequencies a and b differ by
// more than threshold x (fraction of the smaller). A zero frequency
// against a positive one always differs (the ratio is unbounded).
func relDiffer(a, b, x float64) bool {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi == lo {
		return false
	}
	if lo == 0 {
		return hi > 0
	}
	return (hi-lo)/lo > x
}

// PairDoD returns the degree of differentiation of two DFSs: the
// number of feature types selected in both whose shown values expose a
// more-than-x relative difference. x <= 0 selects DefaultThreshold, as
// Options.Normalized does; a depth below 1 selects nothing.
func PairDoD(a, b *DFS, x float64) int {
	return TotalDoD([]*DFS{a, b}, x)
}

// TotalDoD returns the summed DoD over all pairs of DFSs —
// Desideratum 3's objective. x is normalized as in PairDoD.
func TotalDoD(dfss []*DFS, x float64) int {
	total := 0
	forSharedTypes(dfss, x, func(_ feature.Type, differing int) { total += differing })
	return total
}

// SelectedCell is one (result, type) cell of a DFS set's selections.
type SelectedCell struct {
	Col    *feature.Column // a zero Column of the type when the result lacks it
	Result int32
	Depth  int32
}

// SelectedCells appends to buf every (result, type) cell the DFSs
// select, sorted by type and then result, so the cells of one type are
// contiguous. A caller passing a stack array's slice as buf allocates
// nothing while the cells fit.
func SelectedCells(dfss []*DFS, buf []SelectedCell) []SelectedCell {
	for i, d := range dfss {
		for t, depth := range d.Sel {
			col := d.Stats.Column(t)
			if col == nil {
				col = &feature.Column{Type: t}
			}
			buf = append(buf, SelectedCell{Col: col, Result: int32(i), Depth: int32(depth)})
		}
	}
	slices.SortFunc(buf, func(a, b SelectedCell) int {
		if c := a.Col.Type.Compare(b.Col.Type); c != 0 {
			return c
		}
		return int(a.Result - b.Result)
	})
	return buf
}

// forSharedTypes calls fn for every feature type on which some pairs of
// the DFSs differ, with the number of such pairs. Only the selected
// cells are visited: a pair differs exactly when either side's first
// differing value (firstDiffer over the values it shows) exists.
func forSharedTypes(dfss []*DFS, x float64, fn func(t feature.Type, differing int)) {
	if x <= 0 {
		x = DefaultThreshold
	}
	var buf [256]SelectedCell
	cells := SelectedCells(dfss, buf[:0])
	for lo := 0; lo < len(cells); {
		hi := lo + 1
		for hi < len(cells) && cells[hi].Col.Type == cells[lo].Col.Type {
			hi++
		}
		differing := 0
		for p := lo; p < hi; p++ {
			for q := p + 1; q < hi; q++ {
				if cellsDiffer(&cells[p], &cells[q], x) {
					differing++
				}
			}
		}
		if differing > 0 {
			fn(cells[lo].Col.Type, differing)
		}
		lo = hi
	}
}

// cellsDiffer applies the differentiation rule to two cells of one
// type. A depth below 1 selects nothing.
func cellsDiffer(a, b *SelectedCell, x float64) bool {
	if a.Depth < 1 || b.Depth < 1 {
		return false
	}
	return firstDiffer(a.shown(), float64(a.Col.Group()), b.Col, x) > 0 ||
		firstDiffer(b.shown(), float64(b.Col.Group()), a.Col, x) > 0
}

// shown returns the values the cell shows: its depth, capped at the
// column's length.
func (c *SelectedCell) shown() []feature.ValueCount {
	vals := c.Col.Values()
	return vals[:min(int(c.Depth), len(vals))]
}

// padScore ranks a grow move for padding purposes: the relative
// frequency of the value it reveals, then raw count, then type
// significance. Scores are comparable across results, which
// GreedyGlobal relies on for its tie-breaking.
type padScore struct {
	rel   float64
	count int
	total int
}

func (p padScore) better(q padScore) bool {
	if p.rel != q.rel {
		return p.rel > q.rel
	}
	if p.count != q.count {
		return p.count > q.count
	}
	return p.total > q.total
}

// SortFeatures orders features deterministically for display.
func SortFeatures(fs []feature.Feature) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].Type != fs[j].Type {
			return fs[i].Type.Less(fs[j].Type)
		}
		return fs[i].Value < fs[j].Value
	})
}
