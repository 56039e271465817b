package main

import (
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
)

// request performs an arbitrary-method HTTP call with an optional body.
func request(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

func searchTotal(t *testing.T, srvURL, dataset, q string) int {
	t.Helper()
	code, body := get(t, srvURL+"/api/v1/search?dataset="+url.QueryEscape(dataset)+"&q="+url.QueryEscape(q))
	if code != http.StatusOK {
		t.Fatalf("search status = %d: %s", code, body)
	}
	return decodeJSON[searchResponse](t, body).Total
}

// TestAPIDocumentsLifecycle drives the live write path end to end over
// HTTP: add an entity, see it in search, remove it, see it gone,
// compact, and watch the metrics move.
func TestAPIDocumentsLifecycle(t *testing.T) {
	srv := testServer(t)
	const ds = "Product Reviews"

	before := searchTotal(t, srv.URL, ds, "glarpnox")
	if before != 0 {
		t.Fatalf("made-up keyword already matches %d results", before)
	}

	code, body := request(t, http.MethodPost, srv.URL+"/api/v1/documents",
		`{"dataset": "Product Reviews", "xml": "<product><name>Glarpnox 9000</name><category>gps</category></product>"}`)
	if code != http.StatusCreated {
		t.Fatalf("POST status = %d: %s", code, body)
	}
	added := decodeJSON[documentResponse](t, body)
	if added.ID == "" || added.Label != "Glarpnox 9000" || added.PendingDelta != 1 {
		t.Fatalf("POST response = %+v", added)
	}
	if got := searchTotal(t, srv.URL, ds, "glarpnox"); got != 1 {
		t.Fatalf("added entity not searchable: total = %d", got)
	}

	// Metrics expose the live counters.
	_, mbody := get(t, srv.URL+"/api/v1/metrics")
	if !strings.Contains(mbody, `"updates":1`) || !strings.Contains(mbody, `"pending_delta":1`) {
		t.Fatalf("metrics missing live counters: %s", mbody)
	}

	code, body = request(t, http.MethodDelete,
		srv.URL+"/api/v1/documents?dataset="+url.QueryEscape(ds)+"&id="+url.QueryEscape(added.ID), "")
	if code != http.StatusOK {
		t.Fatalf("DELETE status = %d: %s", code, body)
	}
	removed := decodeJSON[documentResponse](t, body)
	if removed.PendingTombstones != 1 {
		t.Fatalf("DELETE response = %+v", removed)
	}
	if got := searchTotal(t, srv.URL, ds, "glarpnox"); got != 0 {
		t.Fatalf("removed entity still searchable: total = %d", got)
	}

	code, body = request(t, http.MethodPost, srv.URL+"/api/v1/compact?dataset="+url.QueryEscape(ds), "")
	if code != http.StatusOK {
		t.Fatalf("compact status = %d: %s", code, body)
	}
	compacted := decodeJSON[compactResponse](t, body)
	if compacted.Compactions < 1 {
		t.Fatalf("compact response = %+v", compacted)
	}
	_, mbody = get(t, srv.URL+"/api/v1/metrics")
	if !strings.Contains(mbody, `"pending_delta":0`) || !strings.Contains(mbody, `"pending_tombstones":0`) {
		t.Fatalf("backlog not cleared after compaction: %s", mbody)
	}
	if got := searchTotal(t, srv.URL, ds, "glarpnox"); got != 0 {
		t.Fatalf("compaction resurrected the entity: total = %d", got)
	}
}

func TestAPIDocumentsValidation(t *testing.T) {
	srv := testServer(t)
	for _, tc := range []struct {
		name   string
		method string
		url    string
		body   string
		want   int
	}{
		{"bad json", http.MethodPost, "/api/v1/documents", "{", http.StatusBadRequest},
		{"missing xml", http.MethodPost, "/api/v1/documents", `{"dataset": "Movies"}`, http.StatusBadRequest},
		{"bad xml", http.MethodPost, "/api/v1/documents", `{"dataset": "Movies", "xml": "<broken"}`, http.StatusBadRequest},
		{"unknown dataset", http.MethodPost, "/api/v1/documents", `{"dataset": "Nope", "xml": "<p/>"}`, http.StatusBadRequest},
		{"auto dataset write", http.MethodPost, "/api/v1/documents", `{"dataset": "` + autoDataset + `", "xml": "<p/>"}`, http.StatusBadRequest},
		{"bad id", http.MethodDelete, "/api/v1/documents?dataset=Movies&id=bogus", "", http.StatusBadRequest},
		{"absent id", http.MethodDelete, "/api/v1/documents?dataset=Movies&id=9999", "", http.StatusNotFound},
		{"method", http.MethodPut, "/api/v1/documents", "", http.StatusMethodNotAllowed},
		{"compact method", http.MethodGet, "/api/v1/compact", "", http.StatusMethodNotAllowed},
	} {
		code, body := request(t, tc.method, srv.URL+tc.url, tc.body)
		if code != tc.want {
			t.Fatalf("%s: status = %d, want %d (%s)", tc.name, code, tc.want, body)
		}
		if !strings.Contains(body, `"error"`) {
			t.Fatalf("%s: error not JSON-enveloped: %s", tc.name, body)
		}
	}
}

// TestAPIDocumentsBodyLimit posts a body past maxDocumentBody: the
// write answers 413 in the JSON envelope and adds nothing.
func TestAPIDocumentsBodyLimit(t *testing.T) {
	srv := testServer(t)
	before := searchTotal(t, srv.URL, "Movies", "horror")
	body := `{"dataset": "Movies", "xml": "<movie><genre>horror</genre><plot>` +
		strings.Repeat("x", maxDocumentBody) + `</plot></movie>"}`
	code, resp := request(t, http.MethodPost, srv.URL+"/api/v1/documents", body)
	if code != http.StatusRequestEntityTooLarge || !strings.HasPrefix(resp, `{"error":`) {
		t.Fatalf("oversized body: status %d: %.200s", code, resp)
	}
	if after := searchTotal(t, srv.URL, "Movies", "horror"); after != before {
		t.Fatalf("rejected write changed the corpus: %d results, was %d", after, before)
	}
}

// TestServerWritesSurviveRestart proves the journaled snapshot path
// through the real server: writes accepted by one server are replayed
// by the next one sharing its snapshot directory.
func TestServerWritesSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	const ds = "Movies"

	s1, err := newServer(1, dir, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := newTestServerFor(t, s1)
	// Force the engine (and its initial snapshot) into existence first.
	searchTotal(t, srv1.URL, ds, "vampire")
	code, body := request(t, http.MethodPost, srv1.URL+"/api/v1/documents",
		`{"dataset": "Movies", "xml": "<movie><title>Crimson Peak Redux</title><genre>glarphorror</genre></movie>"}`)
	if code != http.StatusCreated {
		t.Fatalf("POST status = %d: %s", code, body)
	}
	if got := searchTotal(t, srv1.URL, ds, "glarphorror"); got != 1 {
		t.Fatalf("entity not searchable on first server: %d", got)
	}

	s2, err := newServer(1, dir, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := newTestServerFor(t, s2)
	if got := searchTotal(t, srv2.URL, ds, "glarphorror"); got != 1 {
		t.Fatalf("restart lost the write: %d results", got)
	}
}
