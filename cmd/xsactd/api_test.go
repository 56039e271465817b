package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/snippet"
	"repro/internal/table"
	"repro/internal/xmltree"
	"repro/internal/xseek"
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
	s, err := newServer(5, dir, 0)
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
		// A v4 snapshot an older build wrote over a two-shard base, its
		// writes pending: it loads as one index and is rewritten too.
		{"live_v4_k2.snap", true},
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
				s, err := newServer(5, dir, 0)
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

// TestPreBoundsSnapshotConvertedOnLoad: a v4 snapshot whose postings
// predate block maxima loads as one index built over its tree, and
// xsactd rewrites it in the current layout on the first start, so
// every later start opens the file without a rebuild. That holds for a
// never-written file too, which carries no corpus of its own and is
// otherwise never rewritten. Every start prunes its ranked pages.
func TestPreBoundsSnapshotConvertedOnLoad(t *testing.T) {
	for _, tc := range []struct {
		fixture string
		written bool // the fixture's base holds the v3 fixtures' add and remove
	}{
		{"v4_prebounds.snap", false},
		{"v4_prebounds_compacted.snap", true},
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
			// The never-written fixture is checked against the caller's
			// tree: the <shop> corpus it was saved from.
			var shop strings.Builder
			shop.WriteString("<shop>")
			for i := 0; i < 4; i++ {
				fmt.Fprintf(&shop, "<product><name>item%d</name><kind>%s</kind></product>", i, [2]string{"gps", "radio"}[i%2])
			}
			shop.WriteString("</shop>")
			gen := func() *xmltree.Node { return xmltree.MustParseString(shop.String()) }

			for start := 1; start <= 2; start++ {
				s, err := newServer(5, dir, 0)
				if err != nil {
					t.Fatal(err)
				}
				var eng *engine.Engine
				out := captureLog(t, func() { eng = s.buildEngine("Product Reviews", gen) })
				if !strings.Contains(out, "loaded from snapshot") {
					t.Fatalf("start %d: snapshot should load, log:\n%s", start, out)
				}
				// The first start rewrites the retired file; after that
				// only a file that embeds its corpus is rewritten.
				if rewrote := strings.Contains(out, "rewrote snapshot"); rewrote != (start == 1 || tc.written) {
					t.Fatalf("start %d: rewrote = %v, log:\n%s", start, rewrote, out)
				}
				if _, meta, err := persist.LoadFile(path, gen(), engine.Config{}); err != nil || meta.Rebuilt {
					t.Fatalf("start %d: the file on disk is not in the current layout (rebuilt %v, err %v)", start, meta.Rebuilt, err)
				}
				if rs, _ := eng.Search("item1"); (len(rs) == 0) != tc.written {
					t.Fatalf("start %d: item1 has %d results, written %v", start, len(rs), tc.written)
				}
				if _, err := eng.SearchRankedPage("gps", xseek.SearchOptions{Limit: 1, Accuracy: xseek.AccuracyApprox}); err != nil {
					t.Fatal(err)
				}
				if m := eng.Metrics(); m.RankedStreamed != 1 || m.RankedWAND != 1 {
					t.Fatalf("start %d: ranked_streamed %d / ranked_wand %d, want 1 / 1", start, m.RankedStreamed, m.RankedWAND)
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
		s, err := newServer(1, dir, 0)
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

// TestCompareCapsSelections is the regression test for unbounded
// selections: DFS generation costs O(k²) result pairs, so both compare
// endpoints accept up to maxCompareSelections results and answer 400
// beyond, before any generation runs.
func TestCompareCapsSelections(t *testing.T) {
	srv := testServer(t)
	params := func(k int) string {
		v := url.Values{"dataset": {"Movies"}, "q": {"comedy"}, "L": {"4"}, "alg": {"top-k"}}
		for i := 0; i < k; i++ {
			v.Add("sel", strconv.Itoa(i))
		}
		return v.Encode()
	}
	if total := searchTotal(t, srv.URL, "Movies", "comedy"); total <= maxCompareSelections {
		t.Fatalf("comedy has %d results; the test needs more than %d", total, maxCompareSelections)
	}
	for _, path := range []string{"/compare?", "/api/v1/compare?"} {
		if code, body := get(t, srv.URL+path+params(maxCompareSelections)); code != http.StatusOK {
			t.Fatalf("%s%d selections: status %d: %.200s", path, maxCompareSelections, code, body)
		}
		code, body := get(t, srv.URL+path+params(maxCompareSelections+1))
		if code != http.StatusBadRequest || !strings.Contains(body, fmt.Sprintf("at most %d", maxCompareSelections)) {
			t.Fatalf("%s%d selections: status %d: %.200s", path, maxCompareSelections+1, code, body)
		}
	}
	if _, body := get(t, srv.URL+"/api/v1/compare?"+params(10000)); !strings.HasPrefix(body, `{"error":`) {
		t.Fatalf("JSON compare rejected an oversized selection without the envelope: %.200s", body)
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

// --- The encoding/json oracle of the hot endpoints ---
//
// These are the wire structs and handlers the hot endpoints used before
// they appended their bodies directly: the golden tests hold every
// appended body byte-identical to what encoding/json writes for them,
// and the API tests decode responses into the structs.

// apiResult is one search result in wire form. Index is the selection
// handle /api/v1/compare and /api/v1/snippet accept.
type apiResult struct {
	Index       int    `json:"index"`
	ID          string `json:"id"`
	Label       string `json:"label"`
	Description string `json:"description"`
	// Score carries the TF-IDF relevance score on rank=1 responses;
	// document-order responses omit it.
	Score *float64 `json:"score,omitempty"`
}

type searchResponse struct {
	Dataset string   `json:"dataset"`
	Query   string   `json:"query"`
	Cleaned []string `json:"cleaned"`
	Missing []string `json:"missing,omitempty"`
	// Paging envelope: Total counts the full result list, Offset is
	// the window's start within it, Returned = len(Results). Total is
	// -1 when the execution strategy stopped before counting every
	// result (exec=stream mid-list, or rank=1&accuracy=approx on any
	// in-process dataset, sharded or not; only a coordinator's fan-out
	// always counts).
	Total    int         `json:"total"`
	Offset   int         `json:"offset"`
	Returned int         `json:"returned"`
	Results  []apiResult `json:"results"`
}

type apiCellValue struct {
	Value string  `json:"value"`
	Rel   float64 `json:"rel"`
	Count int     `json:"count"`
}

type apiCell struct {
	Known  bool           `json:"known"`
	Values []apiCellValue `json:"values,omitempty"`
}

type apiRow struct {
	Entity    string    `json:"entity"`
	Attribute string    `json:"attribute"`
	Cells     []apiCell `json:"cells"`
}

type compareResponse struct {
	Dataset   string   `json:"dataset"`
	Query     string   `json:"query"`
	Algorithm string   `json:"algorithm"`
	SizeBound int      `json:"size_bound"`
	DoD       int      `json:"dod"`
	Labels    []string `json:"labels"`
	Rows      []apiRow `json:"rows"`
}

type apiFeature struct {
	Entity    string `json:"entity"`
	Attribute string `json:"attribute"`
	Value     string `json:"value"`
}

type snippetResponse struct {
	Dataset  string       `json:"dataset"`
	Query    string       `json:"query"`
	Index    int          `json:"index"`
	Label    string       `json:"label"`
	Features []apiFeature `json:"features"`
}

// oracleJSONError is the error envelope as encoding/json writes it.
func oracleJSONError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// oracleDescribe is the string-joining result summary
// xseek.AppendDescription replaced.
func oracleDescribe(r *xseek.Result, maxParts int) string {
	parts := []string{r.Label}
	for _, c := range r.Node.ChildElements() {
		if len(parts) >= maxParts {
			break
		}
		if c.IsLeafElement() {
			if v := c.Value(); v != "" && v != r.Label {
				parts = append(parts, c.Tag+"="+v)
			}
		}
	}
	return strings.Join(parts, " | ")
}

func (s *server) oracleSearch(w http.ResponseWriter, r *http.Request) {
	query := r.FormValue("q")
	if query == "" {
		oracleJSONError(w, http.StatusBadRequest, "missing query parameter q")
		return
	}
	ranked := false
	switch r.FormValue("rank") {
	case "", "0", "false":
	case "1", "true":
		ranked = true
	default:
		oracleJSONError(w, http.StatusBadRequest, "bad rank parameter (want 1 or 0)")
		return
	}
	acc := xseek.AccuracyExact
	switch r.FormValue("accuracy") {
	case "", "exact":
	case "approx":
		acc = xseek.AccuracyApprox
	default:
		oracleJSONError(w, http.StatusBadRequest, "bad accuracy parameter (want exact or approx)")
		return
	}
	if !ranked && acc != xseek.AccuracyExact {
		oracleJSONError(w, http.StatusBadRequest, "accuracy applies to ranked search; pass rank=1")
		return
	}
	if ranked && r.FormValue("exec") != "" && r.FormValue("exec") != "auto" {
		oracleJSONError(w, http.StatusBadRequest, "ranked search picks its own execution; drop exec or use exec=auto")
		return
	}
	ds, eng, herr := s.resolveEngine(r.FormValue("dataset"), query)
	if herr != nil {
		oracleJSONError(w, herr.status, herr.msg)
		return
	}
	limit, offset := pageParams(r)
	resp := searchResponse{Dataset: ds, Query: query, Results: []apiResult{}}
	var err error
	if ranked {
		var page *engine.RankedPage
		page, resp.Cleaned, err = eng.SearchCleanedRankedPage(query, xseek.SearchOptions{Limit: limit, Offset: offset, Accuracy: acc})
		if err == nil {
			resp.Total = page.Total
			resp.Offset = page.Offset
			resp.Returned = len(page.Results)
			for i, res := range page.Results {
				score := res.Score
				resp.Results = append(resp.Results, apiResult{
					Index:       page.Offset + i,
					ID:          res.Node.ID.String(),
					Label:       res.Label,
					Description: oracleDescribe(res.Result, 4),
					Score:       &score,
				})
			}
		}
	} else {
		var page *engine.Page
		switch r.FormValue("exec") {
		case "", "auto", "eager":
			page, resp.Cleaned, err = eng.SearchCleanedPage(query, xseek.SearchOptions{Limit: limit, Offset: offset})
		case "stream":
			page, resp.Cleaned, err = eng.SearchCleanedStreamPage(query, xseek.SearchOptions{Limit: limit, Offset: offset})
		default:
			oracleJSONError(w, http.StatusBadRequest, "bad exec parameter (want auto, eager, or stream)")
			return
		}
		if err == nil {
			resp.Total = page.Total
			resp.Offset = page.Offset
			resp.Returned = len(page.Results)
			for i, res := range page.Results {
				resp.Results = append(resp.Results, apiResult{
					Index:       page.Offset + i,
					ID:          res.Node.ID.String(),
					Label:       res.Label,
					Description: oracleDescribe(res, 4),
				})
			}
		}
	}
	if err != nil {
		var noMatch *index.NoMatchError
		if !errors.As(err, &noMatch) {
			herr := readError(err)
			if herr.status == http.StatusServiceUnavailable {
				w.Header().Set("Retry-After", "1")
			}
			oracleJSONError(w, herr.status, herr.msg)
			return
		}
		resp.Missing = noMatch.Terms
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) oracleCompare(w http.ResponseWriter, r *http.Request) {
	in, herr := s.resolveCompare(r)
	if herr != nil {
		oracleJSONError(w, herr.status, herr.msg)
		return
	}
	dfss, herr := in.generate()
	if herr != nil {
		oracleJSONError(w, herr.status, herr.msg)
		return
	}
	tbl := table.Build(dfss)
	resp := compareResponse{
		Dataset:   in.dataset,
		Query:     in.query,
		Algorithm: string(in.alg),
		SizeBound: in.bound,
		DoD:       core.TotalDoD(dfss, core.DefaultThreshold),
		Labels:    tbl.Labels,
		Rows:      []apiRow{},
	}
	for _, row := range tbl.Rows {
		out := apiRow{Entity: row.Type.Entity, Attribute: row.Type.Attribute}
		for _, cell := range row.Cells {
			c := apiCell{Known: cell.Known}
			for _, v := range cell.Values {
				c.Values = append(c.Values, apiCellValue{Value: v.Value, Rel: v.Rel, Count: v.Count})
			}
			out.Cells = append(out.Cells, c)
		}
		resp.Rows = append(resp.Rows, out)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) oracleSnippet(w http.ResponseWriter, r *http.Request) {
	in, herr := s.resolveResult(r)
	if herr != nil {
		oracleJSONError(w, herr.status, herr.msg)
		return
	}
	size, _ := strconv.Atoi(r.FormValue("size"))
	// Bias with the corrected keywords — the ones the result actually
	// answers — so a typo query still boosts the matching features.
	biasQuery := strings.Join(in.cleaned, " ")
	sn := snippet.Generate(in.eng.Stats(in.res.Node, in.res.Label), snippet.Options{Size: size, Query: biasQuery})
	resp := snippetResponse{Dataset: in.dataset, Query: in.query, Index: in.idx, Label: sn.Label, Features: []apiFeature{}}
	for _, f := range sn.Features {
		resp.Features = append(resp.Features, apiFeature{Entity: f.Entity, Attribute: f.Attribute, Value: f.Value})
	}
	writeJSON(w, http.StatusOK, resp)
}

// goldenCase is one request the golden test sends to a hot endpoint and
// to its encoding/json oracle.
type goldenCase struct {
	path string // the endpoint
	v    url.Values
}

// goldenCases is every hot-endpoint request shape: each built-in
// dataset × its canonical queries in document order (full list, limit
// and offset windows, a window past the end, the streamed cursor) and
// ranked (exact, approximate, past the end), compare with every
// algorithm, snippets of several sizes, no-match queries whose echoed
// text needs escaping, and every error envelope.
func goldenCases() []goldenCase {
	var cases []goldenCase
	add := func(path string, kv ...string) {
		v := url.Values{}
		for i := 0; i < len(kv); i += 2 {
			v.Add(kv[i], kv[i+1])
		}
		cases = append(cases, goldenCase{path, v})
	}
	const search, compare, snip = "/api/v1/search", "/api/v1/compare", "/api/v1/snippet"
	sets := []struct {
		name    string
		queries []string
	}{
		{"Product Reviews", dataset.ReviewQueries()},
		{"Outdoor Retailer", dataset.RetailerQueries()},
		{"Movies", dataset.MovieQueries()},
	}
	// Exhaustive enumeration is slow beyond toy sizes, so it only runs
	// in the small all-algorithm sweep below.
	algs := []core.Algorithm{core.AlgMultiSwap, core.AlgSingleSwap, core.AlgTopK, core.AlgGreedy}
	for _, d := range sets {
		for qi, q := range d.queries {
			add(search, "dataset", d.name, "q", q)
			add(search, "dataset", d.name, "q", q, "limit", "10")
			add(search, "dataset", d.name, "q", q, "limit", "3", "offset", "2")
			add(search, "dataset", d.name, "q", q, "limit", "5", "offset", "100000")
			add(search, "dataset", d.name, "q", q, "exec", "stream", "limit", "2")
			add(search, "dataset", d.name, "q", q, "exec", "stream", "limit", "2", "offset", "100000")
			add(search, "dataset", d.name, "q", q, "rank", "1")
			add(search, "dataset", d.name, "q", q, "rank", "1", "limit", "10")
			add(search, "dataset", d.name, "q", q, "rank", "1", "limit", "3", "offset", "1")
			add(search, "dataset", d.name, "q", q, "rank", "1", "accuracy", "approx", "limit", "2")
			add(search, "dataset", d.name, "q", q, "rank", "1", "limit", "5", "offset", "100000")
			alg := algs[qi%len(algs)]
			add(compare, "dataset", d.name, "q", q, "L", "10", "alg", string(alg), "sel", "0", "sel", "1")
			add(compare, "dataset", d.name, "q", q, "L", "4", "alg", string(core.AlgMultiSwap), "sel", "0", "sel", "1", "sel", "2")
			for _, size := range []string{"", "2", "8"} {
				add(snip, "dataset", d.name, "q", q, "idx", "0", "size", size)
			}
			add(snip, "dataset", d.name, "q", q, "idx", "1")
		}
	}
	for _, alg := range append(algs, core.AlgExhaustive) {
		add(compare, "dataset", "Product Reviews", "q", "tomtom gps", "L", "3", "alg", string(alg), "sel", "0", "sel", "1")
	}
	// Echoed query text that encoding/json escapes: HTML metacharacters,
	// control bytes, U+2028/U+2029 and invalid UTF-8.
	for _, q := range []string{"tomtom <b>&amp; \"qux\"", "gps zzqx\u2028\u2029\t\x01", "gps \xff\xfe", "gps\\ café 日本"} {
		add(search, "dataset", "Product Reviews", "q", q)
		add(search, "dataset", "Product Reviews", "q", q, "rank", "1", "limit", "3")
	}
	// Omitted and auto-selected datasets.
	add(search, "q", "tomtom gps", "limit", "4")
	add(search, "dataset", autoDataset, "q", "horror vampire", "rank", "1", "limit", "4")
	add(compare, "q", "tomtom gps", "sel", "0", "sel", "1")
	add(snip, "dataset", autoDataset, "q", "hiking boots", "idx", "0")
	// Error envelopes.
	add(search)
	add(search, "q", "gps", "rank", "2")
	add(search, "q", "gps", "rank", "1", "accuracy", "fuzzy")
	add(search, "q", "gps", "accuracy", "approx")
	add(search, "q", "gps", "rank", "1", "exec", "stream")
	add(search, "q", "gps", "exec", "lazy")
	add(search, "dataset", "Nope", "q", "gps")
	add(search, "dataset", autoDataset, "q", "zzqx")
	add(search, "q", "<&>")
	add(compare, "dataset", "Nope", "q", "gps", "sel", "0", "sel", "1")
	add(compare, "q", "tomtom gps", "sel", "0")
	add(compare, "q", "tomtom gps", "sel", "0", "sel", "9999")
	add(compare, "q", "tomtom gps", "sel", "0", "sel", "1", "alg", "bogus")
	add(compare, "q", "zzqx", "sel", "0", "sel", "1")
	add(snip, "q", "tomtom gps", "idx", "9999")
	add(snip, "q", "tomtom gps", "idx", "x")
	add(snip, "dataset", "Nope", "q", "gps", "idx", "0")
	return cases
}

// TestGoldenHotEndpoints holds every appended hot-endpoint response
// byte-identical — status, Content-Type and body — to encoding/json
// over the wire structs the oracle handlers fill.
func TestGoldenHotEndpoints(t *testing.T) {
	s, err := newServer(1, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	handlers := map[string][2]http.HandlerFunc{
		"/api/v1/search":  {s.apiSearch, s.oracleSearch},
		"/api/v1/compare": {s.apiCompare, s.oracleCompare},
		"/api/v1/snippet": {s.apiSnippet, s.oracleSnippet},
	}
	cases, served := goldenCases(), 0
	for _, c := range cases {
		target := c.path + "?" + c.v.Encode()
		var rec [2]*httptest.ResponseRecorder
		for i, h := range handlers[c.path] {
			rec[i] = httptest.NewRecorder()
			h(rec[i], httptest.NewRequest(http.MethodGet, target, nil))
		}
		got, want := rec[0], rec[1]
		if got.Code != want.Code {
			t.Errorf("%s: status %d, oracle %d", target, got.Code, want.Code)
		}
		for _, h := range []string{"Content-Type", "Retry-After"} {
			if got.Header().Get(h) != want.Header().Get(h) {
				t.Errorf("%s: %s %q, oracle %q", target, h, got.Header().Get(h), want.Header().Get(h))
			}
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s: body differs\n got %s\nwant %s", target, got.Body, want.Body)
		}
		if cl := got.Header().Get("Content-Length"); cl != fmt.Sprint(got.Body.Len()) {
			t.Errorf("%s: Content-Length %q for a %d-byte body", target, cl, got.Body.Len())
		}
		if got.Code == http.StatusOK {
			served++
		}
	}
	if served < len(cases)*3/4 {
		t.Fatalf("only %d of %d golden requests succeeded", served, len(cases))
	}
}

// TestHotEndpointsConcurrent sends the golden requests from several
// goroutines at once through the server's mux: bodies built in pooled
// buffers must never leak into each other.
func TestHotEndpointsConcurrent(t *testing.T) {
	s, err := newServer(1, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	h := s.routes()
	// A streamed or approximate page reports total -1 until some request
	// has counted the results, so its body depends on request order.
	var cases []goldenCase
	for _, c := range goldenCases() {
		if c.v.Get("exec") != "stream" && c.v.Get("accuracy") != "approx" {
			cases = append(cases, c)
		}
	}
	want := make([]string, len(cases))
	for i, c := range cases {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, c.path+"?"+c.v.Encode(), nil))
		want[i] = rec.Body.String()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := range cases {
				i := (n + g*len(cases)/4) % len(cases)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, cases[i].path+"?"+cases[i].v.Encode(), nil))
				if rec.Body.String() != want[i] {
					t.Errorf("goroutine %d, %s?%s: body differs under concurrency\n got %s\nwant %s", g, cases[i].path, cases[i].v.Encode(), rec.Body, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCoordinatorDeadLegsAnswer5xx: once a coordinator's shard legs are
// gone, a read that needs them is the server's failure, not the
// client's. Search, compare and snippet answer 5xx with the JSON error
// envelope instead of 400, and the HTML search page answers 5xx with
// its error page instead of 200; a query the coordinator can still
// answer locally (a keyword no leg holds) keeps its 200 with "missing".
func TestCoordinatorDeadLegsAnswer5xx(t *testing.T) {
	const name = "Movies"
	legs := make([]*httptest.Server, 2)
	endpoints := make([]string, len(legs))
	for g := range legs {
		sv, err := dist.NewServer(g, len(legs))
		if err != nil {
			t.Fatal(err)
		}
		if err := sv.AddCorpus(name, dataset.Movies(dataset.MoviesConfig{Seed: 1})); err != nil {
			t.Fatal(err)
		}
		legs[g] = httptest.NewServer(sv)
		endpoints[g] = legs[g].URL
	}
	s, err := newCoordinatorServer(1, endpoints, 1, 0, dist.Config{Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(s.routes())
	defer front.Close()
	base := front.URL + "/api/v1/"
	if code, body := get(t, base+"search?dataset=Movies&q=horror+vampire"); code != http.StatusOK {
		t.Fatalf("live legs: search %d %s", code, body)
	}
	// A cold ranked page whose limit is near MaxInt: the stream planner
	// used to overflow need*ratio into a small product, route the page
	// to the fan-out, and panic sizing the merge for offset+limit slots.
	if code, body := get(t, base+"search?dataset=Movies&q=scifi+space&rank=1&limit=4611686018427387905"); code != http.StatusOK {
		t.Fatalf("live legs: huge-limit ranked search %d %s", code, body)
	}
	for _, l := range legs {
		l.Close()
	}

	for _, path := range []string{
		"search?dataset=Movies&q=action+revenge",
		"search?dataset=Movies&q=drama+war&rank=1&limit=5",
		"compare?dataset=Movies&q=comedy+romance&sel=0&sel=1",
		"snippet?dataset=Movies&q=thriller+detective&idx=0",
	} {
		code, body := get(t, base+path)
		var env struct {
			Error string `json:"error"`
		}
		if code < 500 || json.Unmarshal([]byte(body), &env) != nil || env.Error == "" {
			t.Errorf("%s with dead legs: %d %s, want 5xx with an error envelope", path, code, body)
		}
	}
	if code, body := get(t, base+"search?dataset=Movies&q=zzzunknownterm"); code != http.StatusOK || !strings.Contains(body, `"missing":["zzzunknownterm"]`) {
		t.Errorf("unmatched keyword with dead legs: %d %s, want 200 naming it missing", code, body)
	}
	if code, body := get(t, front.URL+"/?dataset=Movies&q=action+revenge"); code < 500 || !strings.Contains(body, "<p>search error: ") || !strings.HasSuffix(body, "</body></html>") {
		t.Errorf("HTML search with dead legs: %d %s, want 5xx with the search-error page", code, body)
	}
	if code, body := get(t, front.URL+"/?dataset=Movies&q=zzzunknownterm"); code != http.StatusOK || !strings.Contains(body, "<p>search error: ") {
		t.Errorf("HTML search for an unmatched keyword with dead legs: %d %s, want 200 with the search-error page", code, body)
	}
}
