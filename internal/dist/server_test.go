package dist

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xmltree"
)

// TestBadQueryIsNotAReplicaFault: a query request no replica can serve
// — an older coordinator's "subset" kind, or a probe ID that does not
// parse — answers 400, and a leg client that receives it neither
// retries, fails over, nor demotes the replica.
func TestBadQueryIsNotAReplicaFault(t *testing.T) {
	const doc = `<r><p><v>alpha</v></p><p><v>alpha beta</v></p></r>`
	const corpus = "c"
	var queries atomic.Int64 // query requests that reached a replica
	group := make([]string, 2)
	for r := range group {
		sv, err := NewServer(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := sv.AddCorpus(corpus, xmltree.MustParseString(doc)); err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path == "/shard/v1/query" {
				queries.Add(1)
			}
			sv.ServeHTTP(w, req)
		}))
		t.Cleanup(hs.Close)
		group[r] = hs.URL
	}
	co, err := DialReplicas([][]string{group}, corpus, xmltree.MustParseString(doc),
		Config{Retries: 2, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}

	bad := map[string]string{
		"subset kind": `{"epoch":0,"kind":"subset","query":"alpha","subset":[{"id":"1","match":"1.0","label":"p"}]}`,
		"bad probe":   `{"epoch":0,"kind":"tf","probes":[{"term":"alpha","id":"x.y"}]}`,
	}
	for name, body := range bad {
		resp, err := http.Post(group[0]+"/shard/v1/query?corpus="+corpus, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	queries.Store(0)
	retries, failovers := co.counters.Retries.Load(), co.counters.Failovers.Load()
	_, err = co.cl.query(0, &QueryRequest{Epoch: co.Epoch(), Kind: "subset", Query: "alpha"})
	var se *statusError
	if !errors.As(err, &se) || se.code != http.StatusBadRequest {
		t.Fatalf("leg query error %v, want status 400", err)
	}
	if n := queries.Load(); n != 1 {
		t.Fatalf("a 400 reached %d replica requests, want 1", n)
	}
	if co.counters.Retries.Load() != retries || co.counters.Failovers.Load() != failovers {
		t.Fatal("a 400 was retried or failed over")
	}
	for r := range group {
		if n := co.reps.fails[0][r].Load(); n != 0 {
			t.Fatalf("replica %d demoted (%d failure marks) by a 400", r, n)
		}
	}
}
