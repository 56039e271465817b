package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/xmltree"
)

// newTestServerFor serves an already-constructed server (testServer
// always builds a fresh one with no snapshot dir).
func newTestServerFor(t *testing.T, s *server) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(s.routes())
	t.Cleanup(srv.Close)
	return srv
}

// TestLazyEngineRecoversFromPanic is the regression test for the
// sync.Once poisoning: a panic during the first build must not
// condemn every later request to a nil engine.
func TestLazyEngineRecoversFromPanic(t *testing.T) {
	calls := 0
	l := &lazyEngine{build: func() *engine.Engine {
		calls++
		if calls == 1 {
			panic("transient build failure")
		}
		return engine.New(dataset.ProductReviews(dataset.ReviewsConfig{Seed: 2, ProductsPerCategory: 1}))
	}}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("first get should propagate the build panic")
			}
		}()
		l.get()
	}()

	eng := l.get()
	if eng == nil {
		t.Fatal("second get returned nil: the failed build poisoned the slot")
	}
	if l.get() != eng {
		t.Fatal("later gets must share the one built engine")
	}
	if calls != 2 {
		t.Fatalf("build ran %d times, want 2 (one failure + one retry)", calls)
	}
}

// captureLog redirects the standard logger during fn and returns what
// it wrote.
func captureLog(t *testing.T, fn func()) string {
	t.Helper()
	var buf bytes.Buffer
	log.SetOutput(&buf)
	defer log.SetOutput(os.Stderr)
	fn()
	return buf.String()
}

// TestSnapshotLifecycle drives buildEngine through the full snapshot
// cycle: fresh build writes the file, the next startup loads it
// instead of rebuilding, and a corrupt file falls back to a rebuild
// that replaces it.
func TestSnapshotLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, err := newServer(5, dir, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	gen := func() *xmltree.Node {
		return dataset.ProductReviews(dataset.ReviewsConfig{Seed: 5})
	}

	var first *engine.Engine
	out := captureLog(t, func() {
		first = s.buildEngine("Product Reviews", gen)
	})
	if !strings.Contains(out, "wrote snapshot") {
		t.Fatalf("first build should write a snapshot, log:\n%s", out)
	}
	path := filepath.Join(dir, "reviews-seed5.snap")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}

	var second *engine.Engine
	out = captureLog(t, func() {
		second = s.buildEngine("Product Reviews", gen)
	})
	if !strings.Contains(out, "loaded from snapshot") {
		t.Fatalf("second startup should load the snapshot, log:\n%s", out)
	}
	want, err := first.Search("tomtom gps")
	if err != nil {
		t.Fatal(err)
	}
	got, err := second.Search("tomtom gps")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("snapshot-loaded engine: %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Label != want[i].Label {
			t.Fatalf("result %d: %q vs %q", i, got[i].Label, want[i].Label)
		}
	}

	// A different seed must not accept this snapshot's file name
	// collision — and a corrupt file must cost only a rebuild.
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	var third *engine.Engine
	out = captureLog(t, func() {
		third = s.buildEngine("Product Reviews", gen)
	})
	if !strings.Contains(out, "rebuilding") || !strings.Contains(out, "wrote snapshot") {
		t.Fatalf("corrupt snapshot should rebuild and rewrite, log:\n%s", out)
	}
	if rs, err := third.Search("tomtom gps"); err != nil || len(rs) != len(want) {
		t.Fatalf("rebuilt engine broken: %d results, err %v", len(rs), err)
	}
}

// TestLegacyV3SnapshotConvertedOnLoad: a snapshot in the retired
// journaled v3 layout loads with its writes, is rewritten as v4 on the
// spot, and the rewritten file carries the same writes through every
// later restart. A live snapshot embeds its own corpus, so the
// committed fixtures (a small <shop> where "fresh" was added and item1
// removed) stand in for the dataset's file. One fixture keeps those
// writes pending in its journal; the other was saved after a
// compaction folded them into the base, leaving the journal empty —
// the v4 rewrite must still carry the written-to tree, or the next
// restart would find a snapshot that matches neither the generator nor
// itself and rebuild without the writes.
func TestLegacyV3SnapshotConvertedOnLoad(t *testing.T) {
	for _, tc := range []struct {
		fixture string
		pending bool
	}{
		{"live_v3_k1.snap", true},
		{"live_v3_k1_compacted.snap", false},
	} {
		t.Run(tc.fixture, func(t *testing.T) {
			fixture, err := os.ReadFile(filepath.Join("..", "..", "internal", "persist", "testdata", tc.fixture))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			path := filepath.Join(dir, "reviews-seed5.snap")
			if err := os.WriteFile(path, fixture, 0o644); err != nil {
				t.Fatal(err)
			}
			gen := func() *xmltree.Node {
				return dataset.ProductReviews(dataset.ReviewsConfig{Seed: 5})
			}
			header := func() string {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				line, _, _ := strings.Cut(string(data), "\n")
				return line
			}

			for restart := 1; restart <= 3; restart++ {
				s, err := newServer(5, dir, 1, 0)
				if err != nil {
					t.Fatal(err)
				}
				var eng *engine.Engine
				out := captureLog(t, func() { eng = s.buildEngine("Product Reviews", gen) })
				if !strings.Contains(out, "loaded from snapshot") || !strings.Contains(out, "rewrote snapshot") {
					t.Fatalf("restart %d: snapshot should load and be rewritten, log:\n%s", restart, out)
				}
				if h := header(); h != "XSACTSNAP 4" {
					t.Fatalf("restart %d: snapshot header = %q, want XSACTSNAP 4", restart, h)
				}
				if rs, err := eng.Search("fresh solar"); err != nil || len(rs) != 1 {
					t.Fatalf("restart %d: written add: %d results, err %v", restart, len(rs), err)
				}
				if rs, _ := eng.Search("item1"); len(rs) != 0 {
					t.Fatalf("restart %d: written remove lost: item1 has %d results", restart, len(rs))
				}
				if rs, err := eng.Search("item2"); err != nil || len(rs) != 1 {
					t.Fatalf("restart %d: base entity item2: %d results, err %v", restart, len(rs), err)
				}
				m := eng.Metrics()
				if got := m.PendingDelta != 0 && m.PendingTombstones != 0; got != tc.pending {
					t.Fatalf("restart %d: writes pending = %v, want %v: %+v", restart, got, tc.pending, m)
				}
			}
		})
	}
}

// TestServerSecondStartupFromSnapshot exercises the lifecycle through
// the real server plumbing: two servers sharing a snapshot dir must
// serve identical JSON, the second from disk.
func TestServerSecondStartupFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	serve := func() (string, string) {
		s, err := newServer(1, dir, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		srv := newTestServerFor(t, s)
		var logOut string
		var body string
		logOut = captureLog(t, func() {
			_, body = get(t, srv.URL+"/api/v1/search?dataset=Movies&q=horror+vampire")
		})
		return body, logOut
	}
	firstBody, firstLog := serve()
	if !strings.Contains(firstLog, "wrote snapshot") {
		t.Fatalf("first server should snapshot after building, log:\n%s", firstLog)
	}
	secondBody, secondLog := serve()
	if !strings.Contains(secondLog, "loaded from snapshot") {
		t.Fatalf("second server should start from the snapshot, log:\n%s", secondLog)
	}
	if secondBody != firstBody {
		t.Fatalf("snapshot-served response differs:\n%s\nvs\n%s", secondBody, firstBody)
	}
}

func decodeJSON[T any](t *testing.T, body string) T {
	t.Helper()
	var v T
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("response is not well-formed JSON: %v\n%s", err, body)
	}
	return v
}

func TestAPISearch(t *testing.T) {
	srv := testServer(t)
	code, body := get(t, srv.URL+"/api/v1/search?dataset=Product+Reviews&q=tomtim+gps")
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	resp := decodeJSON[searchResponse](t, body)
	if resp.Dataset != "Product Reviews" || len(resp.Results) == 0 {
		t.Fatalf("response = %+v", resp)
	}
	if len(resp.Cleaned) != 2 || resp.Cleaned[0] != "tomtom" {
		t.Fatalf("typo not cleaned: %v", resp.Cleaned)
	}
	for i, r := range resp.Results {
		if r.Index != i || r.Label == "" || r.ID == "" {
			t.Fatalf("result %d malformed: %+v", i, r)
		}
	}

	// Parity with the HTML path: same result count.
	_, page := get(t, srv.URL+"/?dataset=Product+Reviews&q=tomtim+gps")
	m := regexp.MustCompile(`<h2>(\d+) results</h2>`).FindStringSubmatch(page)
	if m == nil || m[1] != fmt.Sprint(len(resp.Results)) {
		t.Fatalf("JSON returned %d results, HTML header %v", len(resp.Results), m)
	}
}

// TestAPISearchStreamed: exec=stream serves the same window as the
// eager default, reports total -1 while the stream has not reached the
// end of the results, discovers the exact total once a window drains
// the stream, and rejects unknown exec values.
func TestAPISearchStreamed(t *testing.T) {
	srv := testServer(t)
	base := srv.URL + "/api/v1/search?dataset=Product+Reviews&q=tomtom+gps"
	_, eagerBody := get(t, base+"&limit=1")
	eager := decodeJSON[searchResponse](t, eagerBody)
	if eager.Total <= 1 {
		t.Fatalf("fixture too small for early termination: total %d", eager.Total)
	}

	code, body := get(t, base+"&limit=1&exec=stream")
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	streamed := decodeJSON[searchResponse](t, body)
	if streamed.Total != -1 {
		t.Fatalf("early-stopped streamed total = %d, want -1", streamed.Total)
	}
	if len(streamed.Results) != len(eager.Results) {
		t.Fatalf("streamed window has %d results, eager %d", len(streamed.Results), len(eager.Results))
	}
	for i := range eager.Results {
		if streamed.Results[i] != eager.Results[i] {
			t.Fatalf("streamed result %d = %+v, eager %+v", i, streamed.Results[i], eager.Results[i])
		}
	}

	// An unbounded streamed request drains the cursor: exact total, and
	// the full lists agree.
	_, body = get(t, base+"&exec=stream")
	drained := decodeJSON[searchResponse](t, body)
	if drained.Total != eager.Total || len(drained.Results) != eager.Total {
		t.Fatalf("drained stream: total %d, %d results, want %d", drained.Total, len(drained.Results), eager.Total)
	}

	// eager and auto are synonyms of the default.
	for _, exec := range []string{"eager", "auto"} {
		_, body = get(t, base+"&limit=1&exec="+exec)
		if resp := decodeJSON[searchResponse](t, body); resp.Total != eager.Total {
			t.Fatalf("exec=%s total = %d, want %d", exec, resp.Total, eager.Total)
		}
	}

	code, body = get(t, base+"&exec=bogus")
	if code != http.StatusBadRequest || !strings.Contains(body, `"error"`) {
		t.Fatalf("bad exec: status %d body %s", code, body)
	}

	// The streamed counters surface in the metrics endpoint.
	_, body = get(t, srv.URL+"/api/v1/metrics")
	for _, field := range []string{"stream_hits", "stream_misses", "stream_cursor_len", "planner_streamed", "ranked_streamed", "ranked_eager"} {
		if !strings.Contains(body, `"`+field+`"`) {
			t.Fatalf("metrics missing %q: %s", field, body)
		}
	}
}

func TestAPISearchNoMatch(t *testing.T) {
	srv := testServer(t)
	code, body := get(t, srv.URL+"/api/v1/search?dataset=Movies&q=zzznope")
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	resp := decodeJSON[searchResponse](t, body)
	if len(resp.Results) != 0 || len(resp.Missing) == 0 {
		t.Fatalf("no-match response = %+v", resp)
	}
}

func TestAPISearchErrors(t *testing.T) {
	srv := testServer(t)
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"dataset=Nope&q=x", http.StatusBadRequest},
		{"dataset=Movies", http.StatusBadRequest},
		{"dataset=" + url.QueryEscape(autoDataset) + "&q=xyzzyplugh", http.StatusNotFound},
	} {
		code, body := get(t, srv.URL+"/api/v1/search?"+tc.query)
		if code != tc.want {
			t.Fatalf("%s: status = %d, want %d", tc.query, code, tc.want)
		}
		if !strings.Contains(body, `"error"`) {
			t.Fatalf("%s: error not JSON-enveloped: %s", tc.query, body)
		}
	}
}

func TestAPISearchAutoSelect(t *testing.T) {
	srv := testServer(t)
	code, body := get(t, srv.URL+"/api/v1/search?dataset="+url.QueryEscape(autoDataset)+"&q=horror+vampire")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	resp := decodeJSON[searchResponse](t, body)
	if resp.Dataset != "Movies" {
		t.Fatalf("auto-select routed to %q, want Movies", resp.Dataset)
	}
}

func TestAPICompare(t *testing.T) {
	srv := testServer(t)
	params := url.Values{
		"dataset": {"Product Reviews"},
		"q":       {"tomtom gps"},
		"L":       {"8"},
		"alg":     {"multi-swap"},
		"sel":     {"0", "1"},
	}
	code, body := get(t, srv.URL+"/api/v1/compare?"+params.Encode())
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	resp := decodeJSON[compareResponse](t, body)
	if resp.Algorithm != "multi-swap" || resp.SizeBound != 8 {
		t.Fatalf("response header = %+v", resp)
	}
	if len(resp.Labels) != 2 || len(resp.Rows) == 0 {
		t.Fatalf("table shape: %d labels, %d rows", len(resp.Labels), len(resp.Rows))
	}
	known := 0
	for _, row := range resp.Rows {
		if len(row.Cells) != 2 {
			t.Fatalf("row %s:%s has %d cells, want 2", row.Entity, row.Attribute, len(row.Cells))
		}
		for _, c := range row.Cells {
			if c.Known {
				known++
				if len(c.Values) == 0 {
					t.Fatalf("known cell in %s:%s has no values", row.Entity, row.Attribute)
				}
			}
		}
	}
	if known == 0 {
		t.Fatal("comparison table has no known cells")
	}

	// Parity with the HTML path: identical total DoD.
	_, page := get(t, srv.URL+"/compare?"+params.Encode())
	m := regexp.MustCompile(`total DoD = (\d+)`).FindStringSubmatch(page)
	if m == nil || m[1] != fmt.Sprint(resp.DoD) {
		t.Fatalf("JSON DoD %d, HTML %v", resp.DoD, m)
	}
}

func TestAPICompareErrors(t *testing.T) {
	srv := testServer(t)
	cases := []url.Values{
		{"dataset": {"Nope"}, "q": {"x"}, "sel": {"0", "1"}},
		{"dataset": {"Product Reviews"}, "q": {"tomtom gps"}, "sel": {"0"}},
		{"dataset": {"Product Reviews"}, "q": {"tomtom gps"}, "sel": {"0", "9999"}},
		{"dataset": {"Product Reviews"}, "q": {"tomtom gps"}, "sel": {"0", "1"}, "alg": {"bogus"}},
	}
	for i, params := range cases {
		code, body := get(t, srv.URL+"/api/v1/compare?"+params.Encode())
		if code != http.StatusBadRequest {
			t.Fatalf("case %d: status = %d, want 400", i, code)
		}
		if !strings.Contains(body, `"error"`) {
			t.Fatalf("case %d: error not JSON-enveloped: %s", i, body)
		}
	}
}

// TestCompareClampsSizeBound is the regression test for unbounded
// user-supplied table sizes: absurd L values clamp to maxSizeBound on
// both the HTML and JSON paths.
func TestCompareClampsSizeBound(t *testing.T) {
	srv := testServer(t)
	params := url.Values{
		"dataset": {"Product Reviews"},
		"q":       {"tomtom gps"},
		"L":       {"999999"},
		"alg":     {"top-k"},
		"sel":     {"0", "1"},
	}
	code, body := get(t, srv.URL+"/compare?"+params.Encode())
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, fmt.Sprintf("L=%d", maxSizeBound)) {
		t.Fatalf("HTML compare did not clamp L, body header: %.200s", body)
	}
	code, jsonBody := get(t, srv.URL+"/api/v1/compare?"+params.Encode())
	if code != http.StatusOK {
		t.Fatalf("api status = %d", code)
	}
	if resp := decodeJSON[compareResponse](t, jsonBody); resp.SizeBound != maxSizeBound {
		t.Fatalf("API size_bound = %d, want clamp to %d", resp.SizeBound, maxSizeBound)
	}
}

func TestAPISnippet(t *testing.T) {
	srv := testServer(t)
	code, body := get(t, srv.URL+"/api/v1/snippet?dataset=Product+Reviews&q=tomtom+gps&idx=0&size=5")
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	resp := decodeJSON[snippetResponse](t, body)
	if resp.Label == "" || len(resp.Features) == 0 || len(resp.Features) > 5 {
		t.Fatalf("snippet response = %+v", resp)
	}
	for _, f := range resp.Features {
		if f.Entity == "" || f.Attribute == "" {
			t.Fatalf("malformed feature %+v", f)
		}
	}
	for _, idx := range []string{"-1", "9999", "x"} {
		code, _ := get(t, srv.URL+"/api/v1/snippet?dataset=Product+Reviews&q=tomtom+gps&idx="+idx)
		if code != http.StatusBadRequest {
			t.Fatalf("idx %q: status = %d, want 400", idx, code)
		}
	}
}

// TestAPIDatasetDefaults: compare and snippet accept the same dataset
// spellings search does — omitted (first dataset) and auto-select.
func TestAPIDatasetDefaults(t *testing.T) {
	srv := testServer(t)
	code, body := get(t, srv.URL+"/api/v1/compare?q=tomtom+gps&sel=0&sel=1")
	if code != http.StatusOK {
		t.Fatalf("compare without dataset: status = %d: %s", code, body)
	}
	if resp := decodeJSON[compareResponse](t, body); resp.Dataset != "Product Reviews" {
		t.Fatalf("compare defaulted to %q", resp.Dataset)
	}
	code, body = get(t, srv.URL+"/api/v1/snippet?q=tomtom+gps&idx=0")
	if code != http.StatusOK {
		t.Fatalf("snippet without dataset: status = %d: %s", code, body)
	}
	code, body = get(t, srv.URL+"/api/v1/compare?dataset="+url.QueryEscape(autoDataset)+"&q=horror+vampire&sel=0&sel=1")
	if code != http.StatusOK {
		t.Fatalf("compare with auto-select: status = %d: %s", code, body)
	}
	if resp := decodeJSON[compareResponse](t, body); resp.Dataset != "Movies" {
		t.Fatalf("auto-select compare routed to %q", resp.Dataset)
	}
}

// TestAPISnippetBiasUsesCleanedQuery: a typo query must produce the
// same snippet as its corrected form — bias runs on the keywords the
// result actually answers.
func TestAPISnippetBiasUsesCleanedQuery(t *testing.T) {
	srv := testServer(t)
	_, typo := get(t, srv.URL+"/api/v1/snippet?dataset=Product+Reviews&q=tomtim&idx=0&size=4")
	_, exact := get(t, srv.URL+"/api/v1/snippet?dataset=Product+Reviews&q=tomtom&idx=0&size=4")
	a := decodeJSON[snippetResponse](t, typo)
	b := decodeJSON[snippetResponse](t, exact)
	if a.Label != b.Label || len(a.Features) != len(b.Features) {
		t.Fatalf("typo snippet diverges: %+v vs %+v", a, b)
	}
	for i := range a.Features {
		if a.Features[i] != b.Features[i] {
			t.Fatalf("feature %d: %+v vs %+v (bias not using cleaned query?)", i, a.Features[i], b.Features[i])
		}
	}
}

func TestAPIMetrics(t *testing.T) {
	srv := testServer(t)
	// Before any traffic the probe must not force engine builds.
	code, body := get(t, srv.URL+"/api/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	resp := decodeJSON[metricsResponse](t, body)
	if len(resp.Datasets) != 3 {
		t.Fatalf("metrics cover %d datasets, want 3", len(resp.Datasets))
	}
	for name, dm := range resp.Datasets {
		if dm.Built {
			t.Fatalf("metrics probe built engine %q", name)
		}
	}

	// After one search + one repeat, the dataset reports cache traffic.
	get(t, srv.URL+"/api/v1/search?dataset=Movies&q=horror")
	get(t, srv.URL+"/api/v1/search?dataset=Movies&q=horror")
	_, body = get(t, srv.URL+"/api/v1/metrics")
	resp = decodeJSON[metricsResponse](t, body)
	movies := resp.Datasets["Movies"]
	if !movies.Built || movies.Engine == nil || movies.Index == nil {
		t.Fatalf("Movies metrics after traffic = %+v", movies)
	}
	if movies.Engine.QueryHits < 1 || movies.Engine.QueryMisses < 1 {
		t.Fatalf("query counters = %+v", movies.Engine)
	}
	if movies.Index.IndexedElements <= 0 || movies.Index.IndexedElements >= movies.Index.Postings {
		t.Fatalf("index stats implausible: %+v", movies.Index)
	}
}

// TestAPISearchPagination checks the paging envelope and the
// page-concatenation invariant at the JSON level: pages of limit 3
// reassemble the unpaginated result list exactly, with global indices.
func TestAPISearchPagination(t *testing.T) {
	srv := testServer(t)
	base := srv.URL + "/api/v1/search?dataset=Movies&q=thriller"
	code, body := get(t, base)
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	full := decodeJSON[searchResponse](t, body)
	if full.Total != len(full.Results) || full.Offset != 0 || full.Returned != len(full.Results) {
		t.Fatalf("unpaginated envelope = total %d, offset %d, returned %d over %d results",
			full.Total, full.Offset, full.Returned, len(full.Results))
	}
	if full.Total < 4 {
		t.Fatalf("corpus too small for pagination test: %d results", full.Total)
	}

	var got []apiResult
	for off := 0; off < full.Total; off += 3 {
		code, body := get(t, fmt.Sprintf("%s&limit=3&offset=%d", base, off))
		if code != http.StatusOK {
			t.Fatalf("offset %d: status = %d: %s", off, code, body)
		}
		page := decodeJSON[searchResponse](t, body)
		if page.Total != full.Total || page.Offset != off || page.Returned != len(page.Results) {
			t.Fatalf("offset %d: envelope = %+v", off, page)
		}
		got = append(got, page.Results...)
	}
	if len(got) != full.Total {
		t.Fatalf("concatenated %d results, want %d", len(got), full.Total)
	}
	for i, r := range got {
		if r.Index != i || r.ID != full.Results[i].ID || r.Label != full.Results[i].Label {
			t.Fatalf("page concat diverges at %d: %+v vs %+v", i, r, full.Results[i])
		}
	}

	// Out-of-range offset: well-formed empty page, not an error.
	code, body = get(t, base+"&limit=3&offset=100000")
	if code != http.StatusOK {
		t.Fatalf("out-of-range offset: status = %d: %s", code, body)
	}
	page := decodeJSON[searchResponse](t, body)
	if page.Returned != 0 || len(page.Results) != 0 || page.Total != full.Total {
		t.Fatalf("out-of-range page = %+v", page)
	}
}

// TestAPIMetricsPlannerCounters checks that /api/v1/metrics surfaces
// the SLCA planner's decision counters once an engine has served a
// compiled query.
func TestAPIMetricsPlannerCounters(t *testing.T) {
	srv := testServer(t)
	if code, body := get(t, srv.URL+"/api/v1/search?dataset=Movies&q=thriller+detective"); code != http.StatusOK {
		t.Fatalf("warm-up search failed: %d %s", code, body)
	}
	code, body := get(t, srv.URL+"/api/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, field := range []string{"planner_indexed_lookup", "planner_scan_eager", "stats_evictions"} {
		if !strings.Contains(body, field) {
			t.Fatalf("metrics missing %q: %s", field, body)
		}
	}
	resp := decodeJSON[metricsResponse](t, body)
	m := resp.Datasets["Movies"]
	if !m.Built || m.Engine == nil {
		t.Fatalf("Movies engine not reported built: %+v", m)
	}
	if m.Engine.PlannerIndexedLookup+m.Engine.PlannerScanEager < 1 {
		t.Fatalf("planner counters = %+v, want at least one decision", m.Engine)
	}
}

// TestAPISearchHugeLimit is the overflow regression test: a limit that
// strconv.Atoi range-clamps to MaxInt must behave like "no limit", not
// overflow the window arithmetic into a slice-bounds panic.
func TestAPISearchHugeLimit(t *testing.T) {
	srv := testServer(t)
	code, body := get(t, srv.URL+"/api/v1/search?dataset=Movies&q=thriller&limit=99999999999999999999&offset=1")
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	resp := decodeJSON[searchResponse](t, body)
	if resp.Offset != 1 || resp.Returned != resp.Total-1 || len(resp.Results) != resp.Returned {
		t.Fatalf("huge-limit envelope = total %d, offset %d, returned %d over %d results",
			resp.Total, resp.Offset, resp.Returned, len(resp.Results))
	}
}
