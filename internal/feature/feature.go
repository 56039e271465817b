package feature

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// Type identifies a feature type: an attribute of an entity.
type Type struct {
	Entity    string
	Attribute string
}

// String renders the type in the paper's "entity:attribute" style.
func (t Type) String() string { return t.Entity + ":" + t.Attribute }

// Less orders types deterministically (entity, then attribute).
func (t Type) Less(o Type) bool {
	if t.Entity != o.Entity {
		return t.Entity < o.Entity
	}
	return t.Attribute < o.Attribute
}

// Compare is Less as a three-way comparison: -1, 0 or +1.
func (t Type) Compare(o Type) int {
	if c := strings.Compare(t.Entity, o.Entity); c != 0 {
		return c
	}
	return strings.Compare(t.Attribute, o.Attribute)
}

// Feature is a concrete (entity, attribute, value) triplet.
type Feature struct {
	Type
	Value string
}

// String renders "entity:attribute:value" as in the paper's Figure 1.
func (f Feature) String() string { return f.Type.String() + ":" + f.Value }

// ValueCount is a value of a feature type with its occurrence count.
type ValueCount struct {
	Value string
	Count int
}

// Stats holds the feature statistics of one search result. Construct
// with Extract; the ordering accessors embody the significance order
// that validity (Desideratum 2) is defined against. A Stats is
// immutable: one slice of columns, one per feature type in Type.Less
// order, plus the significance order as per-entity spans over them.
// Nothing in it is keyed by a hashed string, and the serving engine
// caches thousands.
type Stats struct {
	// Label identifies the result in tables and logs.
	Label string

	cols     []Column      // one per feature type, in Type.Less order
	types    []Type        // entity by entity, each entity's types in significance order
	order    []int32       // order[k] is the index in cols of types[k]
	entities []string      // entities carrying features, sorted
	bounds   []int32       // entity e spans types[bounds[e]:bounds[e+1]], and cols likewise
	groups   []entityGroup // instance count of every entity seen, by name
}

// entityGroup is an entity's instance count within a result.
type entityGroup struct {
	entity string
	n      int
}

// Column is one feature type's statistics within a result: its values
// in significance order and a value -> count lookup that hashes
// nothing.
type Column struct {
	Type    Type
	group   int          // instances of Type.Entity in the result
	total   int          // sum of the counts: the type's significance
	values  []ValueCount // descending count, ties by value
	byValue []int32      // indexes of values in Value order; nil when short
}

// shortColumn is the longest value list Count scans linearly instead
// of binary-searching byValue.
const shortColumn = 8

// Values returns the column's values in descending occurrence order.
// The returned slice must not be modified.
func (c *Column) Values() []ValueCount { return c.values }

// Total returns the column's total occurrences (its significance).
func (c *Column) Total() int { return c.total }

// Group returns the instance count of the column's entity, the
// denominator of its relative frequencies. Like GroupCount it is never
// below 1, even for a zero Column.
func (c *Column) Group() int { return max(c.group, 1) }

// Count returns the occurrences of value v (0 when absent).
func (c *Column) Count(v string) int {
	if c.byValue == nil {
		for _, vc := range c.values {
			if vc.Value == v {
				return vc.Count
			}
		}
		return 0
	}
	i, ok := slices.BinarySearchFunc(c.byValue, v, func(i int32, v string) int { return strings.Compare(c.values[i].Value, v) })
	if !ok {
		return 0
	}
	return c.values[c.byValue[i]].Count
}

// affirmative reports whether a leaf value is a yes-marker, in which
// case the leaf's tag is the value and its parent's tag the attribute
// (the buzzillions "pro -> compact -> yes" encoding from Figure 1).
func affirmative(v string) bool {
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "yes", "true", "y", "1":
		return true
	}
	return false
}

func negative(v string) bool {
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "no", "false", "n", "0":
		return true
	}
	return false
}

// Extract computes the feature statistics of the result subtree rooted
// at result. The schema (from the whole document) supplies entity
// boundaries. Features are derived from leaf elements:
//
//   - plain leaf <pro>compact</pro> under entity review yields
//     (review, pro, compact);
//   - boolean leaf <compact>yes</compact> under parent <pro> yields
//     (review, pro, compact) too — the Figure 1 encoding; "no" leaves
//     are skipped (only affirmations count, as in the paper);
//   - leaves with no enclosing entity attach to the result root's tag.
//
// Occurrences count entity instances, so repeating <pro>compact</pro>
// twice inside one review still counts once for that review.
func Extract(result *xmltree.Node, schema *xseek.Schema, label string) *Stats {
	// Count entity instances within the result (the result root counts
	// as one instance of its own tag even if not a schema entity, so
	// singleton attributes like product name get group size 1).
	groups := map[string]int{result.Tag: 1}
	counts := make(map[Feature]int)
	result.Walk(func(n *xmltree.Node) bool {
		if n != result && n.Kind == xmltree.Element && schema.IsEntity(n) {
			groups[n.Tag]++
		}
		return true
	})

	// perInstance dedupes (entity instance, feature) pairs.
	type instanceFeature struct {
		owner *xmltree.Node
		f     Feature
	}
	perInstance := make(map[instanceFeature]bool)

	result.Walk(func(n *xmltree.Node) bool {
		if n.Kind != xmltree.Element {
			return true
		}
		// XML attributes are features of the element that carries them
		// — <product sku="A1"> yields (product, sku, A1). The carrying
		// element itself is the owning entity when it is one.
		for _, a := range n.Attrs {
			if a.Value == "" {
				continue
			}
			owner := n
			if n != result && !schema.IsEntity(n) {
				owner = owningEntity(n, result, schema)
			}
			f := Feature{Type: Type{Entity: owner.Tag, Attribute: a.Name}, Value: a.Value}
			key := instanceFeature{owner, f}
			if !perInstance[key] {
				perInstance[key] = true
				counts[f]++
			}
		}
		if !n.IsLeafElement() {
			return true
		}
		v := n.Value()
		if v == "" {
			return true
		}
		var f Feature
		if affirmative(v) && n.Parent != nil && n.Parent.Kind == xmltree.Element {
			// <pro><compact>yes</compact></pro> form.
			f = Feature{Type: Type{Attribute: n.Parent.Tag}, Value: n.Tag}
		} else if negative(v) {
			return true
		} else {
			f = Feature{Type: Type{Attribute: n.Tag}, Value: v}
		}
		owner := owningEntity(n, result, schema)
		f.Entity = owner.Tag
		key := instanceFeature{owner, f}
		if perInstance[key] {
			return true
		}
		perInstance[key] = true
		counts[f]++
		return true
	})
	return freeze(label, groups, counts)
}

// owningEntity returns the entity instance a leaf belongs to: the
// nearest strict-ancestor entity within the result, or the result root.
// The leaf's own node is skipped even if its tag repeats (a repeating
// leaf like <pro> is a multi-valued attribute, not an entity).
func owningEntity(leaf, result *xmltree.Node, schema *xseek.Schema) *xmltree.Node {
	for cur := leaf.Parent; cur != nil && cur != result.Parent; cur = cur.Parent {
		if cur.Kind == xmltree.Element && (cur == result || schema.IsEntity(cur)) {
			return cur
		}
	}
	return result
}

// freeze lays counts out as type-sorted columns and computes the
// deterministic significance orderings. groups maps entity tags to
// instance counts; counts maps features to occurrences, and features
// counted zero or less are dropped.
func freeze(label string, groups map[string]int, counts map[Feature]int) *Stats {
	s := &Stats{Label: label, groups: make([]entityGroup, 0, len(groups))}
	for e, n := range groups {
		s.groups = append(s.groups, entityGroup{e, n})
	}
	slices.SortFunc(s.groups, func(a, b entityGroup) int { return strings.Compare(a.entity, b.entity) })

	// Type order, then each type's values in descending-count order,
	// ties by value: one sort lays out every column.
	type featureCount struct {
		f Feature
		n int
	}
	fcs := make([]featureCount, 0, len(counts))
	for f, n := range counts {
		if n > 0 {
			fcs = append(fcs, featureCount{f, n})
		}
	}
	slices.SortFunc(fcs, func(a, b featureCount) int {
		if c := a.f.Type.Compare(b.f.Type); c != 0 {
			return c
		}
		if a.n != b.n {
			return b.n - a.n
		}
		return strings.Compare(a.f.Value, b.f.Value)
	})
	newType := func(i int) bool { return i == 0 || fcs[i].f.Type != fcs[i-1].f.Type }
	values := make([]ValueCount, len(fcs))
	nt := 0
	for i, fc := range fcs {
		values[i] = ValueCount{Value: fc.f.Value, Count: fc.n}
		if newType(i) {
			nt++
		}
	}
	s.cols = make([]Column, 0, nt)
	for i, fc := range fcs {
		if newType(i) {
			s.cols = append(s.cols, Column{Type: fc.f.Type, group: s.GroupCount(fc.f.Type.Entity), values: values[i:i]})
		}
		c := &s.cols[len(s.cols)-1]
		c.total += fc.n
		c.values = c.values[:len(c.values)+1]
	}
	for ci := range s.cols {
		c := &s.cols[ci]
		c.values = slices.Clip(c.values)
		if len(c.values) > shortColumn {
			c.byValue = make([]int32, len(c.values))
			for v := range c.byValue {
				c.byValue[v] = int32(v)
			}
			slices.SortFunc(c.byValue, func(a, b int32) int { return strings.Compare(c.values[a].Value, c.values[b].Value) })
		}
	}

	// Columns are sorted by entity first, so each entity's columns are
	// one span; its significance order permutes the span. Significance
	// ties break toward the more *concentrated* type (the one whose
	// occurrences pile onto fewer values): "subcategory: rain (28)"
	// summarizes an entity set better than "price" with sixty distinct
	// values, even when both occur once per instance.
	s.order = make([]int32, len(s.cols))
	for ci := range s.cols {
		s.order[ci] = int32(ci)
		if ci == 0 || s.cols[ci].Type.Entity != s.cols[ci-1].Type.Entity {
			s.entities = append(s.entities, s.cols[ci].Type.Entity)
			s.bounds = append(s.bounds, int32(ci))
		}
	}
	s.bounds = append(s.bounds, int32(len(s.cols)))
	s.types = make([]Type, len(s.cols))
	for e := range s.entities {
		lo, hi := s.bounds[e], s.bounds[e+1]
		slices.SortFunc(s.order[lo:hi], func(a, b int32) int {
			ca, cb := &s.cols[a], &s.cols[b]
			if ca.total != cb.total {
				return cb.total - ca.total
			}
			if ma, mb := ca.values[0].Count, cb.values[0].Count; ma != mb {
				return mb - ma
			}
			return int(a - b)
		})
		for k := lo; k < hi; k++ {
			s.types[k] = s.cols[s.order[k]].Type
		}
	}
	return s
}

// Entities returns the entity tags present in the result, sorted.
func (s *Stats) Entities() []string { return s.entities }

// TypesOf returns the feature types of an entity in significance order
// (descending total occurrences; ties broken lexicographically).
func (s *Stats) TypesOf(entity string) []Type {
	e, ok := slices.BinarySearch(s.entities, entity)
	if !ok {
		return nil
	}
	lo, hi := s.bounds[e], s.bounds[e+1]
	return s.types[lo:hi:hi]
}

// AllTypes returns every feature type in the result, entity by entity
// in significance order, as a fresh slice.
func (s *Stats) AllTypes() []Type { return append([]Type(nil), s.types...) }

// Columns returns the result's columns, one per feature type, in
// Type.Less order. The returned slice must not be modified.
func (s *Stats) Columns() []Column { return s.cols }

// Order returns the significance order as column indexes: entity by
// entity in Entities order, each entity's types in TypesOf order.
// Entity e's are order[bounds[e]:bounds[e+1]], and they index the span
// cols[bounds[e]:bounds[e+1]] of Columns. Neither slice may be
// modified.
func (s *Stats) Order() (order, bounds []int32) { return s.order, s.bounds }

// Column returns the column of type t, or nil when the result lacks t.
func (s *Stats) Column(t Type) *Column {
	i := sort.Search(len(s.cols), func(i int) bool { return !s.cols[i].Type.Less(t) })
	if i < len(s.cols) && s.cols[i].Type == t {
		return &s.cols[i]
	}
	return nil
}

// HasType reports whether the result carries any feature of type t.
func (s *Stats) HasType(t Type) bool { return s.Column(t) != nil }

// ValuesOf returns the values of type t in descending occurrence
// order. The returned slice must not be modified.
func (s *Stats) ValuesOf(t Type) []ValueCount {
	if c := s.Column(t); c != nil {
		return c.values
	}
	return nil
}

// Occ returns the occurrence count of feature (t, v).
func (s *Stats) Occ(t Type, v string) int {
	if c := s.Column(t); c != nil {
		return c.Count(v)
	}
	return 0
}

// TypeTotal returns the total occurrences of type t (its significance).
func (s *Stats) TypeTotal(t Type) int {
	if c := s.Column(t); c != nil {
		return c.total
	}
	return 0
}

// GroupCount returns the number of instances of the entity in the
// result (the denominator of relative frequencies). Unknown entities
// report 1 so Rel never divides by zero.
func (s *Stats) GroupCount(entity string) int {
	g, ok := slices.BinarySearchFunc(s.groups, entity, func(g entityGroup, e string) int { return strings.Compare(g.entity, e) })
	if ok && s.groups[g].n > 0 {
		return s.groups[g].n
	}
	return 1
}

// Rel returns the relative frequency of feature (t, v) in the result:
// occurrences divided by entity instances, in [0, 1].
func (s *Stats) Rel(t Type, v string) float64 {
	return float64(s.Occ(t, v)) / float64(s.GroupCount(t.Entity))
}

// FeatureCount returns the number of distinct features in the result.
func (s *Stats) FeatureCount() int {
	n := 0
	for i := range s.cols {
		n += len(s.cols[i].values)
	}
	return n
}

// TypeCount returns the number of distinct feature types.
func (s *Stats) TypeCount() int { return len(s.cols) }

// StatLine renders the "ATTR:VALUE:# of occ" listing of Figure 1 for
// the top k features, most significant first.
func (s *Stats) StatLine(k int) string {
	var rows []string
	for _, ci := range s.order {
		c := &s.cols[ci]
		for _, vc := range c.values {
			rows = append(rows, fmt.Sprintf("%s: %s: %d", c.Type.Attribute, vc.Value, vc.Count))
		}
	}
	if k > 0 && len(rows) > k {
		rows = rows[:k]
	}
	return strings.Join(rows, "\n")
}

// NewStatsFromCounts builds a Stats directly from explicit counts —
// the unit-test and synthetic-benchmark entry point that bypasses XML.
// groupCounts maps entity tag to instance count; counts maps features
// to occurrences.
func NewStatsFromCounts(label string, groupCounts map[string]int, counts map[Feature]int) *Stats {
	return freeze(label, groupCounts, counts)
}
