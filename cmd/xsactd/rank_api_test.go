package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestAPISearchRanked: rank=1 serves the score-ordered page with a
// score on every result, the same envelope shape as doc-order search,
// and scores that never increase down the page. Doc-order responses
// must keep omitting the score field.
func TestAPISearchRanked(t *testing.T) {
	srv := testServer(t)
	base := srv.URL + "/api/v1/search?dataset=Product+Reviews&q=tomtom+gps"

	code, body := get(t, base+"&rank=1&limit=5")
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	ranked := decodeJSON[searchResponse](t, body)
	if len(ranked.Results) == 0 || ranked.Total <= 0 {
		t.Fatalf("ranked response = %+v", ranked)
	}
	var prev float64
	for i, r := range ranked.Results {
		if r.Score == nil {
			t.Fatalf("ranked result %d has no score: %+v", i, r)
		}
		if *r.Score <= 0 {
			t.Fatalf("ranked result %d score = %v, want > 0", i, *r.Score)
		}
		if i > 0 && *r.Score > prev {
			t.Fatalf("ranked scores increase at %d: %v after %v", i, *r.Score, prev)
		}
		prev = *r.Score
		if r.Index != i || r.ID == "" || r.Label == "" {
			t.Fatalf("ranked result %d malformed: %+v", i, r)
		}
	}

	// Doc-order search stays score-free.
	_, body = get(t, base+"&limit=2")
	for _, r := range decodeJSON[searchResponse](t, body).Results {
		if r.Score != nil {
			t.Fatalf("doc-order result carries a score: %+v", r)
		}
	}

	// Typo cleaning applies on the ranked path too.
	_, body = get(t, srv.URL+"/api/v1/search?dataset=Product+Reviews&q=tomtim+gps&rank=1&limit=3")
	cleaned := decodeJSON[searchResponse](t, body)
	if len(cleaned.Cleaned) != 2 || cleaned.Cleaned[0] != "tomtom" {
		t.Fatalf("ranked path skipped query cleaning: %v", cleaned.Cleaned)
	}

	// Ranked paging envelope: a window into the same ordering.
	_, body = get(t, base+"&rank=1&limit=2&offset=1")
	page := decodeJSON[searchResponse](t, body)
	if page.Offset != 1 || page.Returned != len(page.Results) {
		t.Fatalf("ranked page envelope = %+v", page)
	}
	if len(page.Results) > 0 && len(ranked.Results) > 1 {
		if page.Results[0].ID != ranked.Results[1].ID {
			t.Fatalf("ranked offset window diverges: %q, want %q", page.Results[0].ID, ranked.Results[1].ID)
		}
	}
}

// TestAPISearchRankedApprox: accuracy=approx is accepted on ranked
// requests, serves the identical page, and may only degrade the total
// to -1.
func TestAPISearchRankedApprox(t *testing.T) {
	srv := testServer(t)
	base := srv.URL + "/api/v1/search?dataset=Product+Reviews&q=tomtom+gps&rank=1&limit=3"
	_, exactBody := get(t, base)
	exact := decodeJSON[searchResponse](t, exactBody)
	if exact.Total < 0 {
		t.Fatalf("exact ranked total = %d", exact.Total)
	}

	code, body := get(t, base+"&accuracy=approx")
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	approx := decodeJSON[searchResponse](t, body)
	if approx.Total != exact.Total && approx.Total != -1 {
		t.Fatalf("approx total = %d, want %d or -1", approx.Total, exact.Total)
	}
	if len(approx.Results) != len(exact.Results) {
		t.Fatalf("approx page has %d results, exact %d", len(approx.Results), len(exact.Results))
	}
	for i := range exact.Results {
		a, x := approx.Results[i], exact.Results[i]
		if a.ID != x.ID || a.Label != x.Label || a.Score == nil || x.Score == nil || *a.Score != *x.Score {
			t.Fatalf("approx result %d = %+v, exact %+v", i, a, x)
		}
	}

	// accuracy=exact is the explicit spelling of the default.
	_, body = get(t, base+"&accuracy=exact")
	if resp := decodeJSON[searchResponse](t, body); resp.Total != exact.Total {
		t.Fatalf("accuracy=exact total = %d, want %d", resp.Total, exact.Total)
	}

	// The WAND counters surface in the metrics endpoint.
	_, body = get(t, srv.URL+"/api/v1/metrics")
	for _, field := range []string{"ranked_wand", "wand_pruned", "blocks_skipped"} {
		if !strings.Contains(body, `"`+field+`"`) {
			t.Fatalf("metrics missing %q: %s", field, body)
		}
	}
}

// TestAPISearchRankedErrors: malformed rank/accuracy values and
// contradictory parameter combinations are rejected up front with
// JSON-enveloped 400s.
func TestAPISearchRankedErrors(t *testing.T) {
	srv := testServer(t)
	base := srv.URL + "/api/v1/search?dataset=Movies&q=thriller"
	for _, tc := range []string{
		"&rank=maybe",
		"&rank=2",
		"&rank=1&accuracy=fast",
		"&accuracy=approx",    // accuracy without rank=1
		"&rank=1&exec=stream", // ranked search picks its own execution
		"&rank=1&exec=eager",
	} {
		code, body := get(t, base+tc)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400: %s", tc, code, body)
		}
		if !strings.Contains(body, `"error"`) {
			t.Fatalf("%s: error not JSON-enveloped: %s", tc, body)
		}
	}

	// rank=0 and exec compose fine; rank=1 with exec=auto is allowed.
	for _, tc := range []string{"&rank=0&exec=stream", "&rank=1&exec=auto", "&rank=1&accuracy="} {
		if code, body := get(t, base+tc); code != http.StatusOK {
			t.Fatalf("%s: status = %d, want 200: %s", tc, code, body)
		}
	}

	// No-match keeps the 200 + missing-terms envelope on the ranked path.
	code, body := get(t, srv.URL+"/api/v1/search?dataset=Movies&q=zzznope&rank=1")
	if code != http.StatusOK {
		t.Fatalf("ranked no-match: status = %d: %s", code, body)
	}
	if resp := decodeJSON[searchResponse](t, body); len(resp.Missing) == 0 || len(resp.Results) != 0 {
		t.Fatalf("ranked no-match response = %+v", resp)
	}
}

// TestProfilingHandler: the side listener's mux serves the pprof index
// and the memstats JSON snapshot without touching the main API routes.
func TestProfilingHandler(t *testing.T) {
	srv := httptest.NewServer(profilingHandler())
	defer srv.Close()

	code, body := get(t, srv.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: status %d body %.120s", code, body)
	}
	code, body = get(t, srv.URL+"/debug/memstats")
	if code != http.StatusOK {
		t.Fatalf("memstats: status = %d: %s", code, body)
	}
	ms := decodeJSON[memstatsResponse](t, body)
	if ms.HeapAlloc == 0 || ms.HeapSys == 0 || ms.NumGoroutine <= 0 {
		t.Fatalf("memstats implausible: %+v", ms)
	}

	// The main API mux must NOT expose the profiling surface.
	s, err := newServer(1, "", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	api := httptest.NewServer(s.routes())
	defer api.Close()
	if code, _ := get(t, api.URL+"/debug/pprof/"); code == http.StatusOK {
		t.Fatal("profiling endpoints leaked onto the main listener")
	}
}
