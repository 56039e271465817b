package core

import (
	"fmt"
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
	for _, e := range d.Stats.Entities() {
		for _, t := range d.Stats.TypesOf(e) {
			depth := d.Sel[t]
			vals := d.Stats.ValuesOf(t)
			for i := 0; i < depth && i < len(vals); i++ {
				out = append(out, feature.Feature{Type: t, Value: vals[i].Value})
			}
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

// differOn reports whether results a and b, showing depths da and db
// of shared type t, are differentiable in t: some value shown by
// either side has relative frequencies differing by more than x. That
// holds exactly when either side's first differing value lies within
// its shown depth (see kernel).
func differOn(a, b *feature.Stats, t feature.Type, da, db int, x float64) bool {
	ga, gb := float64(a.GroupCount(t.Entity)), float64(b.GroupCount(t.Entity))
	av, bv := a.ValuesOf(t), b.ValuesOf(t)
	return firstDiffer(av[:min(da, len(av))], ga, b.Counts(t), gb, x) > 0 ||
		firstDiffer(bv[:min(db, len(bv))], gb, a.Counts(t), ga, x) > 0
}

// PairDoD returns the degree of differentiation of two DFSs: the
// number of feature types selected in both whose shown values expose a
// more-than-x relative difference.
func PairDoD(a, b *DFS, x float64) int {
	dod := 0
	for t, da := range a.Sel {
		db, ok := b.Sel[t]
		if !ok {
			continue
		}
		if differOn(a.Stats, b.Stats, t, da, db, x) {
			dod++
		}
	}
	return dod
}

// TotalDoD returns the summed DoD over all pairs of DFSs —
// Desideratum 3's objective.
func TotalDoD(dfss []*DFS, x float64) int {
	total := 0
	for i := 0; i < len(dfss); i++ {
		for j := i + 1; j < len(dfss); j++ {
			total += PairDoD(dfss[i], dfss[j], x)
		}
	}
	return total
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
