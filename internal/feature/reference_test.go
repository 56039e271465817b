package feature

// The map-based Stats the column layout replaced, kept verbatim
// (renamed ref*) as the oracle every accessor is checked against.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// refStats holds the feature statistics of one search result.
// Construct with refExtract; the ordering accessors embody the
// significance order that validity (Desideratum 2) is defined against.
type refStats struct {
	// Label identifies the result in tables and logs.
	Label string

	groupCount map[string]int         // entity tag -> instance count in this result
	byType     map[Type]*refTypeStats // type -> its values and their occurrences
	entities   []string               // entity tags, sorted
	types      map[string][]Type      // entity -> types in significance order
}

// refTypeStats is one feature type's statistics within a result.
type refTypeStats struct {
	occ    map[string]int // value -> occurrences
	total  int            // sum of occ: the type's significance
	values []ValueCount   // occ in descending-count order, set by freeze
}

// refExtract computes the feature statistics of the result subtree
// rooted at result. The schema (from the whole document) supplies entity
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
func refExtract(result *xmltree.Node, schema *xseek.Schema, label string) *refStats {
	s := &refStats{
		Label:      label,
		groupCount: make(map[string]int),
		byType:     make(map[Type]*refTypeStats),
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

// add records n more occurrences of feature f.
func (s *refStats) add(f Feature, n int) {
	ts := s.byType[f.Type]
	if ts == nil {
		ts = &refTypeStats{occ: make(map[string]int)}
		s.byType[f.Type] = ts
	}
	ts.occ[f.Value] += n
	ts.total += n
}

// freeze computes the deterministic significance orderings.
func (s *refStats) freeze() {
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
func (s *refStats) Entities() []string { return s.entities }

// TypesOf returns the feature types of an entity in significance order
// (descending total occurrences; ties broken lexicographically).
func (s *refStats) TypesOf(entity string) []Type { return s.types[entity] }

// AllTypes returns every feature type in the result.
func (s *refStats) AllTypes() []Type {
	var out []Type
	for _, e := range s.entities {
		out = append(out, s.types[e]...)
	}
	return out
}

// HasType reports whether the result carries any feature of type t.
func (s *refStats) HasType(t Type) bool { return s.TypeTotal(t) > 0 }

// ValuesOf returns the values of type t in descending occurrence
// order. The returned slice must not be modified.
func (s *refStats) ValuesOf(t Type) []ValueCount {
	if ts := s.byType[t]; ts != nil {
		return ts.values
	}
	return nil
}

// Occ returns the occurrence count of feature (t, v).
func (s *refStats) Occ(t Type, v string) int { return s.Counts(t)[v] }

// Counts returns type t's value -> occurrence map (nil when the result
// lacks t), for callers that look up many values of one type. The map
// must not be modified.
func (s *refStats) Counts(t Type) map[string]int {
	if ts := s.byType[t]; ts != nil {
		return ts.occ
	}
	return nil
}

// TypeTotal returns the total occurrences of type t (its significance).
func (s *refStats) TypeTotal(t Type) int {
	if ts := s.byType[t]; ts != nil {
		return ts.total
	}
	return 0
}

// GroupCount returns the number of instances of the entity in the
// result (the denominator of relative frequencies). Unknown entities
// report 1 so Rel never divides by zero.
func (s *refStats) GroupCount(entity string) int {
	if c := s.groupCount[entity]; c > 0 {
		return c
	}
	return 1
}

// Rel returns the relative frequency of feature (t, v) in the result:
// occurrences divided by entity instances, in [0, 1].
func (s *refStats) Rel(t Type, v string) float64 {
	return float64(s.Occ(t, v)) / float64(s.GroupCount(t.Entity))
}

// FeatureCount returns the number of distinct features in the result.
func (s *refStats) FeatureCount() int {
	n := 0
	for _, ts := range s.byType {
		n += len(ts.occ)
	}
	return n
}

// TypeCount returns the number of distinct feature types.
func (s *refStats) TypeCount() int { return len(s.byType) }

// StatLine renders the "ATTR:VALUE:# of occ" listing of Figure 1 for
// the top k features, most significant first.
func (s *refStats) StatLine(k int) string {
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

// refNewStatsFromCounts builds a refStats directly from explicit counts —
// the unit-test and synthetic-benchmark entry point that bypasses XML.
// groupCounts maps entity tag to instance count; counts maps features
// to occurrences.
func refNewStatsFromCounts(label string, groupCounts map[string]int, counts map[Feature]int) *refStats {
	s := &refStats{
		Label:      label,
		groupCount: make(map[string]int, len(groupCounts)),
		byType:     make(map[Type]*refTypeStats),
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

// oracleCorpora are the three built-in datasets at their default
// sizes, plus the 2000-movie corpus the serving benchmarks compare on.
func oracleCorpora() map[string]*xmltree.Node {
	return map[string]*xmltree.Node{
		"reviews":     dataset.ProductReviews(dataset.ReviewsConfig{Seed: 1}),
		"retailer":    dataset.OutdoorRetailer(dataset.RetailerConfig{Seed: 1}),
		"movies":      dataset.Movies(dataset.MoviesConfig{Seed: 1}),
		"movies-2000": dataset.Movies(dataset.MoviesConfig{Seed: 1, Movies: 2000}),
	}
}

// TestAccessorsMatchOracleOnCorpora extracts every entity instance of
// every corpus (and each corpus root) as a result and demands that every
// accessor of the column layout answer exactly as the map-based oracle.
func TestAccessorsMatchOracleOnCorpora(t *testing.T) {
	long := 0
	for name, root := range oracleCorpora() {
		schema := xseek.InferSchema(root)
		n := 0
		root.Walk(func(node *xmltree.Node) bool {
			if node.Kind == xmltree.Element && (node == root || schema.IsEntity(node)) {
				label := fmt.Sprintf("%s %v", name, node.ID)
				got := Extract(node, schema, label)
				sameAsOracle(t, label, got, refExtract(node, schema, label))
				for _, c := range got.Columns() {
					if len(c.Values()) > shortColumn {
						long++
					}
				}
				n++
			}
			return true
		})
		if n < 10 {
			t.Fatalf("%s: only %d results extracted", name, n)
		}
	}
	if long == 0 {
		t.Fatal("no column long enough to exercise the binary-searched lookup")
	}
}

// TestNewStatsFromCountsMatchesOracle covers what extraction never
// produces: zero and negative counts, groups of zero or below, entities
// with instances but no features, and long columns of tied counts.
func TestNewStatsFromCountsMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		groups := make(map[string]int)
		counts := make(map[Feature]int)
		for e := 0; e < 1+r.Intn(4); e++ {
			ent := fmt.Sprintf("e%d", r.Intn(5))
			groups[ent] = r.Intn(12) - 2
			for a := 0; a < r.Intn(5); a++ {
				typ := Type{Entity: ent, Attribute: fmt.Sprintf("a%d", r.Intn(6))}
				for v := 0; v < r.Intn(3*shortColumn); v++ {
					counts[Feature{Type: typ, Value: fmt.Sprintf("v%d", r.Intn(40))}] = r.Intn(6) - 1
				}
			}
		}
		label := fmt.Sprintf("iter %d", iter)
		sameAsOracle(t, label, NewStatsFromCounts(label, groups, counts), refNewStatsFromCounts(label, groups, counts))
	}
}

// sameAsOracle fails unless got answers every accessor exactly as want.
func sameAsOracle(t *testing.T, label string, got *Stats, want *refStats) {
	t.Helper()
	check := func(what string, g, w any) {
		t.Helper()
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: %s = %v, oracle %v", label, what, g, w)
		}
	}
	check("Label", got.Label, want.Label)
	check("Entities", got.Entities(), want.Entities())
	check("AllTypes", got.AllTypes(), want.AllTypes())
	check("FeatureCount", got.FeatureCount(), want.FeatureCount())
	check("TypeCount", got.TypeCount(), want.TypeCount())
	for _, k := range []int{0, 1, 3, 1000} {
		check(fmt.Sprintf("StatLine(%d)", k), got.StatLine(k), want.StatLine(k))
	}
	entities := append([]string{"", "absent"}, want.Entities()...)
	for e := range want.groupCount {
		entities = append(entities, e)
	}
	for _, e := range entities {
		check("TypesOf("+e+")", got.TypesOf(e), want.TypesOf(e))
		check("GroupCount("+e+")", got.GroupCount(e), want.GroupCount(e))
	}
	types := append(want.AllTypes(), Type{}, Type{Entity: "absent", Attribute: "absent"})
	for _, e := range want.Entities() {
		types = append(types, Type{Entity: e, Attribute: "absent"})
	}
	for _, typ := range types {
		ts := typ.String()
		check("ValuesOf("+ts+")", got.ValuesOf(typ), want.ValuesOf(typ))
		check("TypeTotal("+ts+")", got.TypeTotal(typ), want.TypeTotal(typ))
		check("HasType("+ts+")", got.HasType(typ), want.HasType(typ))
		values := []string{"", "absent"}
		for _, vc := range want.ValuesOf(typ) {
			values = append(values, vc.Value, vc.Value+"x")
		}
		for _, v := range values {
			check("Occ("+ts+", "+v+")", got.Occ(typ, v), want.Occ(typ, v))
			check("Rel("+ts+", "+v+")", got.Rel(typ, v), want.Rel(typ, v))
		}
	}
}
