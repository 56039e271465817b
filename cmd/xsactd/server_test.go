package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := newServer(1, "", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.routes())
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestHomePage(t *testing.T) {
	srv := testServer(t)
	code, body := get(t, srv.URL+"/")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{"XSACT", "Product Reviews", "Outdoor Retailer", "Movies", "<form"} {
		if !strings.Contains(body, want) {
			t.Fatalf("home page missing %q", want)
		}
	}
}

func TestSearchPage(t *testing.T) {
	srv := testServer(t)
	code, body := get(t, srv.URL+"/?dataset=Product+Reviews&q=tomtom+gps")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "results</h2>") {
		t.Fatalf("search page missing results header:\n%s", body[:200])
	}
	if !strings.Contains(body, `type="checkbox"`) {
		t.Fatal("search page missing result checkboxes")
	}
	if !strings.Contains(body, "Compare selected") {
		t.Fatal("search page missing compare button")
	}
}

func TestSearchNoMatchShowsError(t *testing.T) {
	srv := testServer(t)
	code, body := get(t, srv.URL+"/?dataset=Movies&q=zzznope")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "search error") {
		t.Fatal("unmatched query should render an error message")
	}
}

func TestComparePage(t *testing.T) {
	srv := testServer(t)
	params := url.Values{
		"dataset": {"Product Reviews"},
		"q":       {"tomtom gps"},
		"L":       {"8"},
		"alg":     {"multi-swap"},
		"sel":     {"0", "1"},
	}
	code, body := get(t, srv.URL+"/compare?"+params.Encode())
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	for _, want := range []string{"xsact-comparison", "total DoD", "product:name"} {
		if !strings.Contains(body, want) {
			t.Fatalf("compare page missing %q", want)
		}
	}
}

func TestCompareRejectsSingleSelection(t *testing.T) {
	srv := testServer(t)
	params := url.Values{
		"dataset": {"Product Reviews"},
		"q":       {"tomtom gps"},
		"sel":     {"0"},
	}
	code, _ := get(t, srv.URL+"/compare?"+params.Encode())
	if code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", code)
	}
}

func TestCompareRejectsBadInputs(t *testing.T) {
	srv := testServer(t)
	cases := []url.Values{
		{"dataset": {"Nope"}, "q": {"x"}, "sel": {"0", "1"}},
		{"dataset": {"Movies"}, "q": {"zzznope"}, "sel": {"0", "1"}},
		{"dataset": {"Product Reviews"}, "q": {"tomtom gps"}, "sel": {"0", "9999"}},
		{"dataset": {"Product Reviews"}, "q": {"tomtom gps"}, "sel": {"0", "1"}, "alg": {"bogus"}},
	}
	for i, params := range cases {
		code, _ := get(t, srv.URL+"/compare?"+params.Encode())
		if code != http.StatusBadRequest {
			t.Fatalf("case %d: status = %d, want 400", i, code)
		}
	}
}

func TestCompareDefaultsBadSizeBound(t *testing.T) {
	srv := testServer(t)
	params := url.Values{
		"dataset": {"Product Reviews"},
		"q":       {"tomtom gps"},
		"L":       {"not-a-number"},
		"alg":     {"top-k"},
		"sel":     {"0", "1"},
	}
	code, body := get(t, srv.URL+"/compare?"+params.Encode())
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "L=10") {
		t.Fatal("bad L should fall back to the default bound")
	}
}

func TestNotFound(t *testing.T) {
	srv := testServer(t)
	code, _ := get(t, srv.URL+"/nope")
	if code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", code)
	}
}

func TestDatasetNames(t *testing.T) {
	s, err := newServer(1, "", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := s.datasetNames()
	if len(names) != 3 || names[0] != "Product Reviews" {
		t.Fatalf("datasetNames = %v", names)
	}
	// Returned slice must be a copy.
	names[0] = "mutated"
	if s.order[0] == "mutated" {
		t.Fatal("datasetNames leaks internal state")
	}
}

func TestDidYouMean(t *testing.T) {
	srv := testServer(t)
	code, body := get(t, srv.URL+"/?dataset=Product+Reviews&q=tomtim+gps")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "showing results for") || !strings.Contains(body, "tomtom") {
		t.Fatal("typo query should show the corrected keywords")
	}
	// An exact query must not display the correction banner.
	_, body = get(t, srv.URL+"/?dataset=Product+Reviews&q=tomtom+gps")
	if strings.Contains(body, "showing results for") {
		t.Fatal("exact query must not claim a correction")
	}
}

func TestCompareAfterCleanedSearch(t *testing.T) {
	srv := testServer(t)
	params := url.Values{
		"dataset": {"Product Reviews"},
		"q":       {"tomtim gps"}, // typo — compare must clean identically
		"L":       {"6"},
		"alg":     {"multi-swap"},
		"sel":     {"0", "1"},
	}
	code, body := get(t, srv.URL+"/compare?"+params.Encode())
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	if !strings.Contains(body, "total DoD") {
		t.Fatal("comparison after cleaned search failed")
	}
}

func TestResultDetailPage(t *testing.T) {
	srv := testServer(t)
	params := url.Values{
		"dataset": {"Product Reviews"},
		"q":       {"tomtom gps"},
		"idx":     {"0"},
	}
	code, body := get(t, srv.URL+"/result?"+params.Encode())
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	if !strings.Contains(body, "<pre>") || !strings.Contains(body, "&lt;product&gt;") {
		t.Fatal("detail page missing the result XML")
	}
	// Listing links to the detail page.
	_, listing := get(t, srv.URL+"/?dataset=Product+Reviews&q=tomtom+gps")
	if !strings.Contains(listing, "/result?") {
		t.Fatal("result listing missing detail links")
	}
}

func TestResultDetailBadIndex(t *testing.T) {
	srv := testServer(t)
	for _, idx := range []string{"-1", "9999", "x", ""} {
		params := url.Values{
			"dataset": {"Product Reviews"},
			"q":       {"tomtom gps"},
			"idx":     {idx},
		}
		code, _ := get(t, srv.URL+"/result?"+params.Encode())
		if code != http.StatusBadRequest {
			t.Fatalf("idx %q: status = %d, want 400", idx, code)
		}
	}
}

func TestAutoDatasetSelection(t *testing.T) {
	srv := testServer(t)
	code, body := get(t, srv.URL+"/?dataset="+url.QueryEscape(autoDataset)+"&q=horror+vampire")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "auto-selected dataset <b>Movies</b>") {
		t.Fatal("movie query should auto-route to the Movies corpus")
	}
	// The compare form must carry the concrete dataset so the pipeline
	// downstream works.
	if !strings.Contains(body, `name="dataset" value="Movies"`) {
		t.Fatal("compare form not bound to the selected corpus")
	}
	// Hopeless query: friendly message, no crash.
	code, body = get(t, srv.URL+"/?dataset="+url.QueryEscape(autoDataset)+"&q=xyzzyplugh")
	if code != http.StatusOK || !strings.Contains(body, "no dataset contains") {
		t.Fatalf("no-match auto search: %d %q", code, body)
	}
}

// TestSearchPagePagination drives the HTML pagination controls: page
// windows, the "showing x–y" header, global checkbox indices, and the
// prev/next links.
func TestSearchPagePagination(t *testing.T) {
	srv := testServer(t)
	code, body := get(t, srv.URL+"/?dataset=Movies&q=thriller&limit=2")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "(showing 1–2)") {
		t.Fatal("first page missing 'showing 1–2' header")
	}
	if !strings.Contains(body, `name="sel" value="0"`) || !strings.Contains(body, `name="sel" value="1"`) {
		t.Fatal("first page checkboxes not 0 and 1")
	}
	if !strings.Contains(body, "offset=2") || !strings.Contains(body, "next") {
		t.Fatal("first page missing next link")
	}

	code, body = get(t, srv.URL+"/?dataset=Movies&q=thriller&limit=2&offset=2")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "(showing 3–4)") {
		t.Fatal("second page missing 'showing 3–4' header")
	}
	// Checkbox indices are positions in the full result list, so the
	// compare endpoint resolves them identically on any page.
	if !strings.Contains(body, `name="sel" value="2"`) || !strings.Contains(body, `name="sel" value="3"`) {
		t.Fatal("second page checkboxes not global indices 2 and 3")
	}
	if !strings.Contains(body, "offset=0") || !strings.Contains(body, "prev") {
		t.Fatal("second page missing prev link")
	}
}
