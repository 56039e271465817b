package xseek

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/index"
)

func TestSchemaSaveLoadRoundTrip(t *testing.T) {
	root := dataset.ProductReviews(dataset.ReviewsConfig{Seed: 4})
	orig := InferSchema(root)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSchema(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Paths(), orig.Paths()) {
		t.Fatalf("paths after round trip = %v, want %v", back.Paths(), orig.Paths())
	}
	for _, p := range orig.Paths() {
		if back.CategoryOf(p) != orig.CategoryOf(p) {
			t.Fatalf("path %s: category %v, want %v", p, back.CategoryOf(p), orig.CategoryOf(p))
		}
		if back.Instances(p) != orig.Instances(p) {
			t.Fatalf("path %s: %d instances, want %d", p, back.Instances(p), orig.Instances(p))
		}
	}
}

func TestLoadSchemaRejectsWrongWireVersion(t *testing.T) {
	var buf bytes.Buffer
	stale := gobSchema{Version: SchemaWireVersion + 1}
	if err := gob.NewEncoder(&buf).Encode(&stale); err != nil {
		t.Fatal(err)
	}
	_, err := LoadSchema(&buf)
	if err == nil || !strings.Contains(err.Error(), "wire version") {
		t.Fatalf("LoadSchema of stale version: err = %v, want wire-version error", err)
	}
}

func TestLoadSchemaGarbage(t *testing.T) {
	if _, err := LoadSchema(strings.NewReader("not gob")); err == nil {
		t.Fatal("LoadSchema of garbage succeeded")
	}
}

// TestFromPartsMatchesNew: an engine assembled from persisted parts
// must search identically to one built from scratch.
func TestFromPartsMatchesNew(t *testing.T) {
	root := dataset.ProductReviews(dataset.ReviewsConfig{Seed: 4})
	fresh := New(root)

	st := index.NewSymbolTable()
	payload, err := index.EncodeCompact(fresh.Index(), st)
	if err != nil {
		t.Fatal(err)
	}
	var schBuf bytes.Buffer
	if err := fresh.Schema().Save(&schBuf); err != nil {
		t.Fatal(err)
	}
	idx, err := index.OpenCompact(root, st, payload)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := LoadSchema(&schBuf)
	if err != nil {
		t.Fatal(err)
	}
	loaded := FromParts(root, idx, schema)

	for _, q := range []string{"tomtom gps", "garmin", "camera review"} {
		want, err1 := fresh.Search(q)
		got, err2 := loaded.Search(q)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("query %q: errors differ: %v vs %v", q, err1, err2)
		}
		if len(got) != len(want) {
			t.Fatalf("query %q: %d results, want %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i].Node != want[i].Node || got[i].Label != want[i].Label {
				t.Fatalf("query %q result %d: %q vs %q", q, i, got[i].Label, want[i].Label)
			}
		}
	}
}
