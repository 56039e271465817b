package xsact

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/shard"
	"repro/internal/xmltree"
)

// shardedDoc is a Document whose engine serves a K-shard partition's
// indexes as one multi-part base (engine.FromSharded) for K > 1, and
// one index otherwise. The facade never builds that layout itself;
// these tests hold it to the one-index document.
func shardedDoc(root *xmltree.Node, k int, opts Options) *Document {
	if k <= 1 {
		return FromTreeWith(root, opts)
	}
	return &Document{root: root, eng: engine.FromSharded(shard.Build(root, k), opts.engineConfig())}
}

func reviews(seed int64) *xmltree.Node {
	return dataset.ProductReviews(dataset.ReviewsConfig{Seed: seed})
}

// TestFacadeShardedEquivalence: documents over K-shard bases must
// answer every facade search exactly like the one-index document —
// results, ranking scores, and paging envelopes.
func TestFacadeShardedEquivalence(t *testing.T) {
	mono, err := BuiltinDataset("reviews", 21)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"tomtom gps", "easy", "camera zoom", "garmin", "nosuchterm"}
	for _, k := range []int{1, 2, 8} {
		sharded := shardedDoc(reviews(21), k, Options{})
		if k > 1 && sharded.Engine().Index() != nil {
			t.Fatalf("K=%d: expected a multi-part base", k)
		}
		for _, q := range queries {
			want, errW := mono.Search(q)
			got, errG := sharded.Search(q)
			if (errW == nil) != (errG == nil) {
				t.Fatalf("K=%d %q: err %v vs %v", k, q, errG, errW)
			}
			if len(got) != len(want) {
				t.Fatalf("K=%d %q: %d results vs %d", k, q, len(got), len(want))
			}
			for i := range want {
				if got[i].Label != want[i].Label {
					t.Fatalf("K=%d %q result %d: %q vs %q", k, q, i, got[i].Label, want[i].Label)
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
					t.Fatalf("K=%d %q: %v", k, q, err)
				}
				if total != len(fullR) {
					t.Fatalf("K=%d %q: total %d, want %d", k, q, total, len(fullR))
				}
				for i, r := range rs {
					if r.Label != fullR[off+i].Label || scores[i] != fullScores[off+i] {
						t.Fatalf("K=%d %q page offset %d entry %d: %q@%v vs %q@%v",
							k, q, off, i, r.Label, scores[i], fullR[off+i].Label, fullScores[off+i])
					}
					concat = append(concat, r.Label)
				}
				if off+len(rs) >= total {
					break
				}
			}
			if len(concat) != len(fullR) {
				t.Fatalf("K=%d %q: concatenated pages cover %d of %d results", k, q, len(concat), len(fullR))
			}
		}
	}
}

// TestFacadeShardedCompare: the comparison pipeline (feature stats,
// DFS generation, tables) runs unchanged on a K-shard base.
func TestFacadeShardedCompare(t *testing.T) {
	doc := shardedDoc(reviews(21), 4, Options{})
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
		t.Fatalf("comparison broken on sharded doc: DoD=%d", cmp.DoD)
	}

	mono, _ := BuiltinDataset("reviews", 21)
	monoRs, _ := mono.Search("tomtom gps")
	monoCmp, err := Compare(monoRs[:2], CompareOptions{SizeBound: 8})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Text() != monoCmp.Text() {
		t.Fatal("comparison table differs between sharded and monolithic documents")
	}
}

// TestFacadeShardedSnapshot: a document over a K-shard base snapshots
// through the facade and reloads as one index with identical results.
func TestFacadeShardedSnapshot(t *testing.T) {
	const catalog = `<store><product><name>TomTom</name><pro>easy</pro></product>` +
		`<product><name>Garmin</name><pro>fast</pro></product>` +
		`<product><name>Nuvi</name><pro>easy</pro></product></store>`
	doc := shardedDoc(xmltree.MustParseString(catalog), 3, Options{})
	var snap bytes.Buffer
	if err := doc.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSnapshotString(catalog, &snap)
	if err != nil {
		t.Fatal(err)
	}
	if back.Engine().Index() == nil || back.Engine().Metrics().Shards != 1 {
		t.Fatal("reloaded document does not serve one index")
	}
	want, _ := doc.Search("easy")
	got, err := back.Search("easy")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d results after reload, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Label != want[i].Label {
			t.Fatalf("result %d: %q vs %q", i, got[i].Label, want[i].Label)
		}
	}
}

// TestLibraryWithShardedDocs: database selection must route queries
// over a mixed library of documents over K-shard and one-index bases.
func TestLibraryWithShardedDocs(t *testing.T) {
	lib := NewLibrary()
	movies, _ := BuiltinDataset("movies", 1)
	lib.Add("reviews", shardedDoc(reviews(1), 4, Options{}))
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
