package dist

import (
	"errors"
	"fmt"
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

// TestOversizeWireBodyIsNotAReplicaFault: a request body over
// maxWireBody answers 413 on every decoding path — ranking push, query,
// write and compaction — and leaves the leg's published state as it
// was; a leg client that receives the 413 neither retries, fails over,
// nor demotes the replica.
func TestOversizeWireBodyIsNotAReplicaFault(t *testing.T) {
	const doc = `<r><p><v>alpha</v></p><p><v>alpha beta</v></p></r>`
	const corpus = "c"
	var queries atomic.Int64
	servers := make([]*Server, 2)
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
		servers[r], group[r] = sv, hs.URL
	}
	co, err := DialReplicas([][]string{group}, corpus, xmltree.MustParseString(doc),
		Config{Retries: 2, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}

	pad := strings.Repeat("a", maxWireBody)
	before := servers[0].corpus(corpus).cur.Load()
	for _, path := range []string{"/shard/v1/ranking", "/shard/v1/query", "/shard/v1/write", "/shard/v1/compact"} {
		body := `{"epoch":0,"pad":"` + pad + `"}`
		resp, err := http.Post(group[0]+path+"?corpus="+corpus, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413", path, resp.StatusCode)
		}
		if servers[0].corpus(corpus).cur.Load() != before {
			t.Fatalf("%s: an over-cap body changed the leg's state", path)
		}
	}

	queries.Store(0)
	retries, failovers := co.counters.Retries.Load(), co.counters.Failovers.Load()
	_, err = co.cl.query(0, &QueryRequest{Epoch: co.Epoch(), Kind: KindSearch, Query: pad})
	var se *statusError
	if !errors.As(err, &se) || se.code != http.StatusRequestEntityTooLarge {
		t.Fatalf("leg query error %v, want status 413", err)
	}
	if n := queries.Load(); n != 1 {
		t.Fatalf("a 413 reached %d replica requests, want 1", n)
	}
	if co.counters.Retries.Load() != retries || co.counters.Failovers.Load() != failovers {
		t.Fatal("a 413 was retried or failed over")
	}
	for r := range group {
		if n := co.reps.fails[0][r].Load(); n != 0 {
			t.Fatalf("replica %d demoted (%d failure marks) by a 413", r, n)
		}
	}
}

// TestWriteOrdinalMismatchRejected: a leg applies an add only at the
// ordinal its own document assigns next. An op carrying any other
// ordinal answers 422 and leaves the epoch and state unmoved; the op
// at the right ordinal then applies.
func TestWriteOrdinalMismatchRejected(t *testing.T) {
	const doc = `<r><p><v>alpha</v></p><p><v>alpha beta</v></p></r>`
	const corpus = "c"
	sv, err := NewServer(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.AddCorpus(corpus, xmltree.MustParseString(doc)); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(sv)
	t.Cleanup(hs.Close)
	post := func(ord int) int {
		t.Helper()
		body := fmt.Sprintf(`{"epoch":0,"ord":%d,"xml":"<p><v>gamma</v></p>","ranking":{"totalNodes":10,"df":{"gamma":1}}}`, ord)
		resp, err := http.Post(hs.URL+"/shard/v1/write?corpus="+corpus, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	before := sv.corpus(corpus).cur.Load()
	for _, ord := range []int{1, 3, 99} {
		if code := post(ord); code != http.StatusUnprocessableEntity {
			t.Fatalf("ord %d: status %d, want 422", ord, code)
		}
		if sv.corpus(corpus).cur.Load() != before || sv.Epoch(corpus) != 0 {
			t.Fatalf("ord %d: a rejected write moved the leg to epoch %d", ord, sv.Epoch(corpus))
		}
	}
	if code := post(2); code != http.StatusOK {
		t.Fatalf("ord 2: status %d, want 200", code)
	}
	if got := sv.Epoch(corpus); got != 1 {
		t.Fatalf("epoch %d after the write at the next ordinal, want 1", got)
	}
}
