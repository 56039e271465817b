package feature

import (
	"fmt"
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
// that validity (Desideratum 2) is defined against.
type Stats struct {
	// Label identifies the result in tables and logs.
	Label string

	groupCount map[string]int      // entity tag -> instance count in this result
	byType     map[Type]*typeStats // type -> its values and their occurrences
	entities   []string            // entity tags, sorted
	types      map[string][]Type   // entity -> types in significance order
}

// typeStats is one feature type's statistics within a result. One map
// entry per type, rather than three maps keyed by type, makes a Stats
// about a fifth lighter, and the serving engine caches thousands.
type typeStats struct {
	occ    map[string]int // value -> occurrences
	total  int            // sum of occ: the type's significance
	values []ValueCount   // occ in descending-count order, set by freeze
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
	s := &Stats{
		Label:      label,
		groupCount: make(map[string]int),
		byType:     make(map[Type]*typeStats),
	}

	// Count entity instances within the result (the result root counts
	// as one instance of its own tag even if not a schema entity, so
	// singleton attributes like product name get group size 1).
	s.groupCount[result.Tag] = 1
	result.Walk(func(n *xmltree.Node) bool {
		if n != result && n.Kind == xmltree.Element && schema.IsEntity(n) {
			s.groupCount[n.Tag]++
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
				s.add(f, 1)
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
		s.add(f, 1)
		return true
	})

	s.freeze()
	return s
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

// add records n more occurrences of feature f.
func (s *Stats) add(f Feature, n int) {
	ts := s.byType[f.Type]
	if ts == nil {
		ts = &typeStats{occ: make(map[string]int)}
		s.byType[f.Type] = ts
	}
	ts.occ[f.Value] += n
	ts.total += n
}

// freeze computes the deterministic significance orderings.
func (s *Stats) freeze() {
	s.types = make(map[string][]Type)
	for t := range s.byType {
		s.types[t.Entity] = append(s.types[t.Entity], t)
	}
	for e := range s.types {
		s.entities = append(s.entities, e)
	}
	sort.Strings(s.entities)
	// Significance ties break toward the more *concentrated* type (the
	// one whose occurrences pile onto fewer values): "subcategory:
	// rain (28)" summarizes an entity set better than "price" with
	// sixty distinct values, even when both occur once per instance.
	maxValueCount := func(t Type) int {
		m := 0
		for _, c := range s.byType[t].occ {
			if c > m {
				m = c
			}
		}
		return m
	}
	for e, ts := range s.types {
		sort.Slice(ts, func(i, j int) bool {
			ti, tj := ts[i], ts[j]
			if a, b := s.byType[ti].total, s.byType[tj].total; a != b {
				return a > b
			}
			if mi, mj := maxValueCount(ti), maxValueCount(tj); mi != mj {
				return mi > mj
			}
			return ti.Less(tj)
		})
		s.types[e] = ts
	}
	for _, ts := range s.byType {
		vcs := make([]ValueCount, 0, len(ts.occ))
		for v, c := range ts.occ {
			vcs = append(vcs, ValueCount{Value: v, Count: c})
		}
		sort.Slice(vcs, func(i, j int) bool {
			if vcs[i].Count != vcs[j].Count {
				return vcs[i].Count > vcs[j].Count
			}
			return vcs[i].Value < vcs[j].Value
		})
		ts.values = vcs
	}
}

// Entities returns the entity tags present in the result, sorted.
func (s *Stats) Entities() []string { return s.entities }

// TypesOf returns the feature types of an entity in significance order
// (descending total occurrences; ties broken lexicographically).
func (s *Stats) TypesOf(entity string) []Type { return s.types[entity] }

// AllTypes returns every feature type in the result.
func (s *Stats) AllTypes() []Type {
	var out []Type
	for _, e := range s.entities {
		out = append(out, s.types[e]...)
	}
	return out
}

// HasType reports whether the result carries any feature of type t.
func (s *Stats) HasType(t Type) bool { return s.TypeTotal(t) > 0 }

// ValuesOf returns the values of type t in descending occurrence
// order. The returned slice must not be modified.
func (s *Stats) ValuesOf(t Type) []ValueCount {
	if ts := s.byType[t]; ts != nil {
		return ts.values
	}
	return nil
}

// Occ returns the occurrence count of feature (t, v).
func (s *Stats) Occ(t Type, v string) int { return s.Counts(t)[v] }

// Counts returns type t's value -> occurrence map (nil when the result
// lacks t), for callers that look up many values of one type. The map
// must not be modified.
func (s *Stats) Counts(t Type) map[string]int {
	if ts := s.byType[t]; ts != nil {
		return ts.occ
	}
	return nil
}

// TypeTotal returns the total occurrences of type t (its significance).
func (s *Stats) TypeTotal(t Type) int {
	if ts := s.byType[t]; ts != nil {
		return ts.total
	}
	return 0
}

// GroupCount returns the number of instances of the entity in the
// result (the denominator of relative frequencies). Unknown entities
// report 1 so Rel never divides by zero.
func (s *Stats) GroupCount(entity string) int {
	if c := s.groupCount[entity]; c > 0 {
		return c
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
	for _, ts := range s.byType {
		n += len(ts.occ)
	}
	return n
}

// TypeCount returns the number of distinct feature types.
func (s *Stats) TypeCount() int { return len(s.byType) }

// StatLine renders the "ATTR:VALUE:# of occ" listing of Figure 1 for
// the top k features, most significant first.
func (s *Stats) StatLine(k int) string {
	var rows []string
	for _, e := range s.entities {
		for _, t := range s.types[e] {
			for _, vc := range s.ValuesOf(t) {
				rows = append(rows, fmt.Sprintf("%s: %s: %d", t.Attribute, vc.Value, vc.Count))
			}
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
	s := &Stats{
		Label:      label,
		groupCount: make(map[string]int, len(groupCounts)),
		byType:     make(map[Type]*typeStats),
	}
	for e, c := range groupCounts {
		s.groupCount[e] = c
	}
	for f, c := range counts {
		if c > 0 {
			s.add(f, c)
		}
	}
	s.freeze()
	return s
}
