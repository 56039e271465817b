package xsact

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/xmltree"
)

// clusterDoc is a Document served through FromCluster by a coordinator
// over k shard servers on httptest listeners, each bootstrapped from
// the tree fresh builds.
func clusterDoc(t *testing.T, fresh func() *xmltree.Node, k int, opts ClusterOptions) *Document {
	t.Helper()
	doc, err := FromCluster(fresh(), startLegs(t, fresh, k), legCorpus, opts)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// liveDoc is a one-index Document for k ≤ 1 and a k-leg cluster
// Document otherwise, compacting itself every autoCompact writes.
func liveDoc(t *testing.T, fresh func() *xmltree.Node, k, autoCompact int) *Document {
	t.Helper()
	if k <= 1 {
		return FromTreeWith(fresh(), Options{AutoCompactEvery: autoCompact})
	}
	return clusterDoc(t, fresh, k, ClusterOptions{AutoCompactEvery: autoCompact})
}

// backlog is a document's count of writes awaiting compaction.
func backlog(d *Document) int {
	m := d.Engine().Metrics()
	return m.PendingDelta + m.PendingTombstones
}

func reviews(seed int64) *xmltree.Node {
	return dataset.ProductReviews(dataset.ReviewsConfig{Seed: seed})
}

func reviews21() *xmltree.Node { return reviews(21) }

// TestFacadeShardedEquivalence: a document over a two-leg cluster must
// answer every facade search exactly like the one-index document —
// results, ranking scores, and paging envelopes.
func TestFacadeShardedEquivalence(t *testing.T) {
	mono, err := BuiltinDataset("reviews", 21)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"tomtom gps", "easy", "camera zoom", "garmin", "nosuchterm"}
	sharded := clusterDoc(t, reviews21, 2, ClusterOptions{})
	if sharded.Engine().Index() != nil {
		t.Fatal("a cluster document exposes a local index")
	}
	for _, q := range queries {
		want, errW := mono.Search(q)
		got, errG := sharded.Search(q)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("%q: err %v vs %v", q, errG, errW)
		}
		if len(got) != len(want) {
			t.Fatalf("%q: %d results vs %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i].Label != want[i].Label {
				t.Fatalf("%q result %d: %q vs %q", q, i, got[i].Label, want[i].Label)
			}
		}
		if errW != nil {
			continue
		}

		// Ranked paging: equality of every window plus the
		// concatenation invariant.
		fullR, fullScores, errW := mono.SearchRanked(q)
		if errW != nil {
			t.Fatal(errW)
		}
		var concat []string
		for off := 0; ; off += 3 {
			rs, scores, total, err := sharded.SearchRankedPage(q, 3, off)
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			if total != len(fullR) {
				t.Fatalf("%q: total %d, want %d", q, total, len(fullR))
			}
			for i, r := range rs {
				if r.Label != fullR[off+i].Label || scores[i] != fullScores[off+i] {
					t.Fatalf("%q page offset %d entry %d: %q@%v vs %q@%v",
						q, off, i, r.Label, scores[i], fullR[off+i].Label, fullScores[off+i])
				}
				concat = append(concat, r.Label)
			}
			if off+len(rs) >= total {
				break
			}
		}
		if len(concat) != len(fullR) {
			t.Fatalf("%q: concatenated pages cover %d of %d results", q, len(concat), len(fullR))
		}
	}
}

// TestFacadeShardedCompare: the comparison pipeline (feature stats,
// DFS generation, tables) runs unchanged on a cluster document.
func TestFacadeShardedCompare(t *testing.T) {
	doc := clusterDoc(t, reviews21, 2, ClusterOptions{})
	rs, err := doc.Search("tomtom gps")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) < 2 {
		t.Fatalf("need ≥2 results, got %d", len(rs))
	}
	cmp, err := Compare(rs[:2], CompareOptions{SizeBound: 8})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.DoD <= 0 || cmp.Text() == "" {
		t.Fatalf("comparison broken on cluster doc: DoD=%d", cmp.DoD)
	}

	mono, _ := BuiltinDataset("reviews", 21)
	monoRs, _ := mono.Search("tomtom gps")
	monoCmp, err := Compare(monoRs[:2], CompareOptions{SizeBound: 8})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Text() != monoCmp.Text() {
		t.Fatal("comparison table differs between cluster and monolithic documents")
	}
}

// TestFacadeShardedSnapshot: a cluster document has no local state to
// snapshot — its legs persist through group snapshots — so
// SaveSnapshot fails closed and writes nothing.
func TestFacadeShardedSnapshot(t *testing.T) {
	const catalog = `<store><product><name>TomTom</name><pro>easy</pro></product>` +
		`<product><name>Garmin</name><pro>fast</pro></product>` +
		`<product><name>Nuvi</name><pro>easy</pro></product></store>`
	doc := clusterDoc(t, func() *xmltree.Node { return xmltree.MustParseString(catalog) }, 2, ClusterOptions{})
	var snap bytes.Buffer
	if err := doc.SaveSnapshot(&snap); err == nil || snap.Len() != 0 {
		t.Fatalf("cluster snapshot: err %v, %d bytes written; want an error and nothing written", err, snap.Len())
	}
}

// TestLibraryWithShardedDocs: database selection must route queries
// over a mixed library of cluster and one-index documents.
func TestLibraryWithShardedDocs(t *testing.T) {
	lib := NewLibrary()
	movies, _ := BuiltinDataset("movies", 1)
	lib.Add("reviews", clusterDoc(t, func() *xmltree.Node { return reviews(1) }, 2, ClusterOptions{}))
	lib.Add("movies", movies)
	name, rs, err := lib.Search("tomtom gps")
	if err != nil {
		t.Fatal(err)
	}
	if name != "reviews" || len(rs) == 0 {
		t.Fatalf("routed to %q with %d results, want reviews", name, len(rs))
	}
	if _, _, err := lib.Search("zzzznope"); err == nil {
		t.Fatal("uncovered query should error")
	}
}
