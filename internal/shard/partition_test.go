package shard

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// TestPlanShape: on a corpus with one entity level under the root, the
// segments are exactly the entities, the spine is just the root, and
// the groups are contiguous and non-empty.
func TestPlanShape(t *testing.T) {
	root := dataset.ProductReviews(dataset.ReviewsConfig{Seed: 3, ProductsPerCategory: 7})
	schema := xseek.InferSchema(root)
	p := Plan(root, schema, 4)

	if len(p.Spine) == 0 || p.Spine[0] != root {
		t.Fatalf("spine should start at the root, got %d nodes", len(p.Spine))
	}
	for _, s := range p.Segments {
		if s.Tag != "product" {
			t.Fatalf("segment %s@%s: want product entities", s.Tag, s.ID)
		}
	}
	if len(p.Segments) != 21 {
		t.Fatalf("got %d segments, want 21 products", len(p.Segments))
	}
	if len(p.Groups) != 4 {
		t.Fatalf("got %d groups, want 4", len(p.Groups))
	}
	prev := 0
	for g, r := range p.Groups {
		if r[0] != prev || r[1] <= r[0] {
			t.Fatalf("group %d = %v: groups must be contiguous and non-empty", g, r)
		}
		prev = r[1]
	}
	if prev != len(p.Segments) {
		t.Fatalf("groups cover [0,%d), want [0,%d)", prev, len(p.Segments))
	}
}

// TestPlanDeterministic: the partition must be a pure function of
// (root, schema, k) — snapshot loading relies on recomputing it.
func TestPlanDeterministic(t *testing.T) {
	root := dataset.Movies(dataset.MoviesConfig{Seed: 7})
	schema := xseek.InferSchema(root)
	a, b := Plan(root, schema, 5), Plan(root, schema, 5)
	if fmt.Sprint(a.Groups) != fmt.Sprint(b.Groups) || len(a.Segments) != len(b.Segments) {
		t.Fatalf("partition not deterministic: %v vs %v", a.Groups, b.Groups)
	}
}

// TestPlanClamping: more shards than segments clamps; a document with
// no element children still yields one (empty) group.
func TestPlanClamping(t *testing.T) {
	root := xmltree.MustParseString("<r><a>x y</a><a>y z</a></r>")
	p := Plan(root, xseek.InferSchema(root), 8)
	if len(p.Groups) != 2 {
		t.Fatalf("2 segments, 8 shards: got %d groups, want 2", len(p.Groups))
	}

	leaf := xmltree.MustParseString("<r>only text</r>")
	p = Plan(leaf, xseek.InferSchema(leaf), 4)
	if len(p.Groups) != 1 || p.Groups[0] != [2]int{0, 0} {
		t.Fatalf("leaf doc: groups = %v, want one empty group", p.Groups)
	}
	if e := Build(leaf, 4); e.LegCount() != 1 {
		t.Fatalf("leaf doc builds %d shards, want 1", e.LegCount())
	}
}

// TestPlanWrappedEntities: entities nested under wrapper elements put
// the wrappers on the spine, and entity-free subtrees become segments
// of their own.
func TestPlanWrappedEntities(t *testing.T) {
	doc := `<catalog>
		<meta><updated>today</updated></meta>
		<section>
			<product><name>a</name></product>
			<product><name>b</name></product>
		</section>
		<section>
			<product><name>c</name></product>
			<product><name>d</name></product>
		</section>
	</catalog>`
	root := xmltree.MustParseString(doc)
	p := Plan(root, xseek.InferSchema(root), 2)

	var spineTags, segTags []string
	for _, n := range p.Spine {
		spineTags = append(spineTags, n.Tag)
	}
	for _, n := range p.Segments {
		segTags = append(segTags, n.Tag)
	}
	// <section> repeats → it is itself an entity, so sections are the
	// topmost entities and become segments; <meta> is entity-free.
	if fmt.Sprint(spineTags) != "[catalog]" {
		t.Fatalf("spine = %v, want [catalog]", spineTags)
	}
	if fmt.Sprint(segTags) != "[meta section section]" {
		t.Fatalf("segments = %v, want [meta section section]", segTags)
	}
}

// TestCrossShardRootSLCA: when two keywords co-occur only at the
// document root — their witnesses in different shards — the sharded
// engine must still produce the root SLCA, exactly like the
// monolithic engine.
func TestCrossShardRootSLCA(t *testing.T) {
	doc := `<r><p><name>first</name><v>alpha</v></p><p><name>second</name><v>beta</v></p></r>`
	root := xmltree.MustParseString(doc)
	mono := xseek.New(root)
	sharded := Build(root, 2)
	if sharded.LegCount() != 2 {
		t.Fatalf("want 2 shards, got %d", sharded.LegCount())
	}

	want, _ := mono.Search("alpha beta")
	got, err := sharded.Search("alpha beta")
	if err != nil {
		t.Fatal(err)
	}
	if resultKey(got) != resultKey(want) {
		t.Fatalf("cross-shard SLCA: got %s, want %s", resultKey(got), resultKey(want))
	}
	if len(got) != 1 || got[0].Node != root {
		t.Fatalf("expected the root as the single result, got %d results", len(got))
	}
}

// TestSpineOnlyTerm: a keyword appearing only in the root's own text
// is served by the spine index; pairing it with an entity keyword
// still works.
func TestSpineOnlyTerm(t *testing.T) {
	doc := `<r>catalogtitle <p><name>a</name><v>alpha</v></p><p><name>b</name><v>beta</v></p></r>`
	root := xmltree.MustParseString(doc)
	mono := xseek.New(root)
	sharded := Build(root, 2)

	for _, q := range []string{"catalogtitle", "catalogtitle alpha", "alpha"} {
		want, wantErr := mono.Search(q)
		got, gotErr := sharded.Search(q)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%q: err %v vs %v", q, gotErr, wantErr)
		}
		if resultKey(got) != resultKey(want) {
			t.Fatalf("%q: got %s, want %s", q, resultKey(got), resultKey(want))
		}
	}
}
