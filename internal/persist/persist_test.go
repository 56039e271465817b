package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/table"
	"repro/internal/xmltree"
)

func testRoot() *xmltree.Node {
	return dataset.ProductReviews(dataset.ReviewsConfig{Seed: 11})
}

func snapshotOf(t testing.TB, eng *engine.Engine, meta Meta) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, eng, meta); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRoundTripGoldenEquality: an engine loaded from a snapshot must
// be observationally identical to one built fresh — same search
// results, same ranking scores, same comparison tables.
func TestRoundTripGoldenEquality(t *testing.T) {
	root := testRoot()
	fresh := engine.New(root)
	snap := snapshotOf(t, fresh, Meta{CorpusName: "reviews", Seed: 11})

	loaded, meta, err := Load(bytes.NewReader(snap), root, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if meta.CorpusName != "reviews" || meta.Seed != 11 {
		t.Fatalf("meta after load = %+v", meta)
	}

	for _, q := range []string{"tomtom gps", "garmin", "canon camera"} {
		want, err1 := fresh.Search(q)
		got, err2 := loaded.Search(q)
		if err1 != nil || err2 != nil {
			t.Fatalf("query %q: errors %v / %v", q, err1, err2)
		}
		if len(got) != len(want) {
			t.Fatalf("query %q: %d results, want %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i].Node != want[i].Node || got[i].Label != want[i].Label {
				t.Fatalf("query %q result %d: %q vs %q", q, i, got[i].Label, want[i].Label)
			}
		}

		wantRanked, _ := fresh.SearchRanked(q)
		gotRanked, _ := loaded.SearchRanked(q)
		for i := range wantRanked {
			if gotRanked[i].Label != wantRanked[i].Label || gotRanked[i].Score != wantRanked[i].Score {
				t.Fatalf("query %q rank %d: (%q, %g) vs (%q, %g)", q, i,
					gotRanked[i].Label, gotRanked[i].Score, wantRanked[i].Label, wantRanked[i].Score)
			}
		}

		if len(want) < 2 {
			continue
		}
		opts := core.Options{SizeBound: 8, Pad: true}
		wantTable := table.Build(fresh.Generate(core.AlgMultiSwap, want[:2], opts)).Text()
		gotTable := table.Build(loaded.Generate(core.AlgMultiSwap, got[:2], opts)).Text()
		if gotTable != wantTable {
			t.Fatalf("query %q: comparison tables differ:\n%s\nvs\n%s", q, gotTable, wantTable)
		}
	}
}

func TestLoadRejectsCorruptSnapshot(t *testing.T) {
	root := testRoot()
	snap := snapshotOf(t, engine.New(root), Meta{})
	if !bytes.HasPrefix(snap, []byte("XSACTSNAP 4\n")) {
		t.Fatalf("snapshot header = %q, want version 4", snap[:12])
	}

	cases := map[string][]byte{
		"empty":          nil,
		"not a snapshot": []byte("hello world\n"),
		"bad magic":      append([]byte("NOTASNAP 4\n"), snap[len("XSACTSNAP 4\n"):]...),
		"old version":    append([]byte("XSACTSNAP 0\n"), snap[len("XSACTSNAP 4\n"):]...),
		"truncated":      snap[:len(snap)/2],
		"bit rot":        append(append([]byte{}, snap[:len(snap)-40]...), make([]byte, 40)...),
	}
	for name, data := range cases {
		if _, _, err := Load(bytes.NewReader(data), root, engine.Config{}); err == nil {
			t.Errorf("%s: Load succeeded, want error", name)
		}
	}
}

// TestLoadRejectsStaleContent: a corpus whose content changed but
// whose shape (root tag, node count) did not must still be rejected —
// the postings would silently point at the wrong terms otherwise.
func TestLoadRejectsStaleContent(t *testing.T) {
	before := xmltree.MustParseString(`<store><product><name>TomTom Go</name></product></store>`)
	after := xmltree.MustParseString(`<store><product><name>Garmin Nuvi</name></product></store>`)
	snap := snapshotOf(t, engine.New(before), Meta{})
	_, _, err := Load(bytes.NewReader(snap), after, engine.Config{})
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("Load against changed content: err = %v, want fingerprint mismatch", err)
	}
}

func TestLoadRejectsWrongCorpus(t *testing.T) {
	snap := snapshotOf(t, engine.New(testRoot()), Meta{CorpusName: "reviews"})
	other := dataset.Movies(dataset.MoviesConfig{Seed: 1, Movies: 10})
	_, _, err := Load(bytes.NewReader(snap), other, engine.Config{})
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("Load against wrong corpus: err = %v, want fingerprint mismatch", err)
	}
}

func TestSaveFileLoadFile(t *testing.T) {
	root := testRoot()
	fresh := engine.New(root)
	path := filepath.Join(t.TempDir(), "snapshots", "reviews.snap")
	if err := SaveFile(path, fresh, Meta{CorpusName: "reviews", Seed: 11}); err != nil {
		t.Fatal(err)
	}
	loaded, meta, err := LoadFile(path, root, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if meta.CorpusName != "reviews" {
		t.Fatalf("meta = %+v", meta)
	}
	rs, err := loaded.Search("tomtom gps")
	if err != nil || len(rs) == 0 {
		t.Fatalf("loaded engine search: %d results, err %v", len(rs), err)
	}
	// No temp files left behind by the atomic write.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("snapshot dir has %d entries, want just the snapshot", len(entries))
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, _, err := LoadFile(filepath.Join(t.TempDir(), "nope.snap"), testRoot(), engine.Config{}); err == nil {
		t.Fatal("LoadFile of missing file succeeded")
	}
}

// benchRoot is a corpus big enough that derived-state construction,
// not tree generation, dominates startup — the regime snapshots exist
// for.
func benchRoot() *xmltree.Node {
	return dataset.ProductReviews(dataset.ReviewsConfig{
		Seed: 11, ProductsPerCategory: 12, MinReviews: 20, MaxReviews: 40,
	})
}

// BenchmarkStartupRebuild vs BenchmarkStartupSnapshotLoad measure the
// server-restart cost the snapshot layer removes: building an engine's
// derived state from the tree versus reloading it from a snapshot.
func BenchmarkStartupRebuild(b *testing.B) {
	root := benchRoot()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = engine.New(root)
	}
}

func BenchmarkStartupSnapshotLoad(b *testing.B) {
	root := benchRoot()
	snap := snapshotOf(b, engine.New(root), Meta{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Load(bytes.NewReader(snap), root, engine.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
