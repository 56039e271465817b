package xsact

import (
	"bytes"
	"strings"
	"testing"
)

func TestDocumentSnapshotRoundTrip(t *testing.T) {
	fresh, err := ParseString(demoDoc)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := fresh.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshotString(demoDoc, &snap)
	if err != nil {
		t.Fatal(err)
	}

	want, err := fresh.Search("tomtom")
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Search("tomtom")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Label != want[i].Label {
			t.Fatalf("result %d: %q vs %q", i, got[i].Label, want[i].Label)
		}
	}

	wantCmp, err := Compare(want, CompareOptions{SizeBound: 6})
	if err != nil {
		t.Fatal(err)
	}
	gotCmp, err := Compare(got, CompareOptions{SizeBound: 6})
	if err != nil {
		t.Fatal(err)
	}
	if gotCmp.Text() != wantCmp.Text() || gotCmp.DoD != wantCmp.DoD {
		t.Fatalf("comparison differs after snapshot load:\n%s\nvs\n%s", gotCmp.Text(), wantCmp.Text())
	}
}

// TestDocumentSnapshotFormatCompact: SaveSnapshot writes the compact
// layout, which round-trips through the facade with identical answers.
func TestDocumentSnapshotFormatCompact(t *testing.T) {
	fresh, err := ParseString(demoDoc)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := fresh.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(snap.String(), "XSACTSNAP 4\n") {
		t.Fatalf("compact snapshot header = %q", snap.String()[:12])
	}
	loaded, err := LoadSnapshotString(demoDoc, &snap)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Search("tomtom")
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Search("tomtom")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Label != want[i].Label {
			t.Fatalf("result %d: %q vs %q", i, got[i].Label, want[i].Label)
		}
	}
}

func TestLoadSnapshotRejectsMismatch(t *testing.T) {
	doc, err := ParseString(demoDoc)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := doc.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	// A snapshot of one document must not attach to another.
	other := `<library><book><title>go</title></book><book><title>xml</title></book></library>`
	if _, err := LoadSnapshotString(other, bytes.NewReader(snap.Bytes())); err == nil {
		t.Fatal("snapshot attached to a different document")
	}
	// Corrupt snapshots fail instead of producing a broken engine.
	if _, err := LoadSnapshotString(demoDoc, strings.NewReader("garbage")); err == nil {
		t.Fatal("corrupt snapshot loaded")
	}
}
