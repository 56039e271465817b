package xseek

import (
	"reflect"
	"testing"
)

func TestCleanQueryPassesKnownTerms(t *testing.T) {
	e := New(shopTree(t))
	got := e.CleanQuery("tomtom compact")
	if !reflect.DeepEqual(got, []string{"tomtom", "compact"}) {
		t.Fatalf("CleanQuery = %v", got)
	}
}

func TestCleanQueryFixesTypos(t *testing.T) {
	e := New(shopTree(t))
	got := e.CleanQuery("tomtim compct")
	if !reflect.DeepEqual(got, []string{"tomtom", "compact"}) {
		t.Fatalf("CleanQuery(typos) = %v", got)
	}
}

func TestCleanQueryKeepsHopelessTerms(t *testing.T) {
	e := New(shopTree(t))
	got := e.CleanQuery("xqzptlk")
	if !reflect.DeepEqual(got, []string{"xqzptlk"}) {
		t.Fatalf("CleanQuery(hopeless) = %v", got)
	}
}

func TestSearchCleanedEndToEnd(t *testing.T) {
	e := New(shopTree(t))
	res, cleaned, err := e.SearchCleaned("tomtim 630")
	if err != nil {
		t.Fatalf("cleaned search failed: %v (cleaned=%v)", err, cleaned)
	}
	if len(res) != 1 || res[0].Label != "TomTom Go 630" {
		t.Fatalf("results = %v", res)
	}
	if cleaned[0] != "tomtom" {
		t.Fatalf("cleaned = %v", cleaned)
	}
}
