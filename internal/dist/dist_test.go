package dist_test

// The distributed equivalence harness: every shard-level bit-identity
// property re-run through real HTTP servers and the coordinator. The
// legs here are httptest servers — each process-isolated in state (its
// own parse of the corpus, its own index) if not in address space; the
// true multi-process run lives in cmd/xsactd's TestShardServerProcesses.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dewey"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/update"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// randomDoc mirrors the shard package's corpus generator: repeated
// entity containers with nested structure, keyword-bearing leaves, and
// the occasional term directly on a wrapper so spine fix-up runs.
func randomDoc(r *rand.Rand, vocab []string) string {
	var b strings.Builder
	var emit func(depth int)
	emit = func(depth int) {
		if depth >= 4 || r.Intn(3) == 0 {
			b.WriteString("<leaf>")
			for i := r.Intn(3) + 1; i > 0; i-- {
				b.WriteString(vocab[r.Intn(len(vocab))])
				b.WriteString(" ")
			}
			b.WriteString("</leaf>")
			return
		}
		d := r.Intn(3)
		fmt.Fprintf(&b, "<n%d>", d)
		for i := r.Intn(4) + 1; i > 0; i-- {
			emit(depth + 1)
		}
		fmt.Fprintf(&b, "</n%d>", d)
	}
	b.WriteString("<root>")
	if r.Intn(2) == 0 {
		b.WriteString(vocab[r.Intn(len(vocab))])
		b.WriteString(" ")
	}
	for i := r.Intn(6) + 2; i > 0; i-- {
		emit(1)
	}
	b.WriteString("</root>")
	return b.String()
}

// entityDoc builds one standalone entity fragment for live-add tests.
func entityDoc(r *rand.Rand, vocab []string) string {
	var b strings.Builder
	b.WriteString("<n0>")
	for i := r.Intn(3) + 1; i > 0; i-- {
		b.WriteString("<leaf>")
		for j := r.Intn(3) + 1; j > 0; j-- {
			b.WriteString(vocab[r.Intn(len(vocab))])
			b.WriteString(" ")
		}
		b.WriteString("</leaf>")
	}
	b.WriteString("</n0>")
	return b.String()
}

func resultKey(rs []*xseek.Result) string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = r.Node.ID.String() + "=" + r.Match.ID.String() + "=" + r.Label
	}
	return strings.Join(parts, ";")
}

// rankedKey fingerprints a ranked page down to the score bits, so two
// scores that happen to print alike still have to BE alike.
func rankedKey(rs []*xseek.RankedResult) string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = fmt.Sprintf("%s@%016x", r.Node.ID, math.Float64bits(r.Score))
	}
	return strings.Join(parts, ";")
}

func sameError(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	var na, nb *index.NoMatchError
	if errors.As(a, &na) != errors.As(b, &nb) {
		return false
	}
	if na != nil {
		return fmt.Sprint(na.Terms) == fmt.Sprint(nb.Terms)
	}
	return a.Error() == b.Error()
}

// cluster is one corpus served by k httptest shard legs plus a dialed
// coordinator.
type cluster struct {
	servers []*dist.Server
	https   []*httptest.Server
	co      *dist.Coordinator
}

const testCorpus = "c"

// startCluster boots k shard servers (each parsing its own copy of
// doc — no shared tree) and dials a coordinator over them.
func startCluster(t *testing.T, k int, doc string, cfg dist.Config) *cluster {
	return startClusterWrapped(t, k, doc, cfg, nil)
}

// startClusterWrapped is startCluster with a per-leg handler wrapper —
// the fault-injection hook (hangs, failures, request counting).
func startClusterWrapped(t *testing.T, k int, doc string, cfg dist.Config, wrap func(g int, h http.Handler) http.Handler) *cluster {
	t.Helper()
	cl := &cluster{}
	endpoints := make([]string, k)
	for g := 0; g < k; g++ {
		sv, err := dist.NewServer(g, k)
		if err != nil {
			t.Fatalf("NewServer(%d, %d): %v", g, k, err)
		}
		if err := sv.AddCorpus(testCorpus, xmltree.MustParseString(doc)); err != nil {
			t.Fatalf("leg %d AddCorpus: %v", g, err)
		}
		var h http.Handler = sv
		if wrap != nil {
			h = wrap(g, h)
		}
		hs := httptest.NewServer(h)
		t.Cleanup(hs.Close)
		cl.servers = append(cl.servers, sv)
		cl.https = append(cl.https, hs)
		endpoints[g] = hs.URL
	}
	co, err := dist.Dial(endpoints, testCorpus, xmltree.MustParseString(doc), cfg)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	cl.co = co
	return cl
}

// pageOptions are the limit/offset envelopes every equivalence check
// walks — the same set the in-process shard tests use.
var pageOptions = []xseek.SearchOptions{
	{Limit: 1}, {Limit: 2}, {Limit: 3, Offset: 1},
	{Limit: 2, Offset: 2}, {Limit: 100}, {Offset: 1},
}

// checkEquivalence runs one query through both sides and asserts
// bit-identity across every read path: doc-order search, full
// ranking, and exact + approximate score-bounded pages. The window of
// the reference's full ranking is the oracle for every ranked page,
// and both accuracies must report the exact total.
func checkEquivalence(t *testing.T, ref refEngine, co *dist.Coordinator, query, ctx string) {
	t.Helper()
	want, wantErr := searchOf(ref, query)
	got, gotErr := searchOf(co, query)
	if !sameError(wantErr, gotErr) {
		t.Fatalf("%s query %q: err %v vs %v", ctx, query, gotErr, wantErr)
	}
	if resultKey(got) != resultKey(want) {
		t.Fatalf("%s query %q:\n got  %s\n want %s", ctx, query, resultKey(got), resultKey(want))
	}
	if wantErr != nil {
		return
	}
	wantRanked := ref.RankResults(want, query)
	gotRanked := co.RankResults(got, query)
	if rankedKey(gotRanked) != rankedKey(wantRanked) {
		t.Fatalf("%s query %q ranked:\n got  %s\n want %s", ctx, query, rankedKey(gotRanked), rankedKey(wantRanked))
	}
	for _, opts := range pageOptions {
		wantPage := rankWindow(wantRanked, opts)
		for _, acc := range []xseek.Accuracy{xseek.AccuracyExact, xseek.AccuracyApprox} {
			wopts := opts
			wopts.Accuracy = acc
			gotW, gotWT, _, err := co.SearchRankedPageWAND(query, wopts)
			if err != nil {
				t.Fatalf("%s query %q wand %+v acc=%d: %v", ctx, query, opts, acc, err)
			}
			if rankedKey(gotW) != rankedKey(wantPage) {
				t.Fatalf("%s query %q wand %+v acc=%d:\n got  %s\n want %s",
					ctx, query, opts, acc, rankedKey(gotW), rankedKey(wantPage))
			}
			// The fan-out runs every leg exact, so both accuracies pin
			// the total.
			if gotWT != len(want) {
				t.Fatalf("%s query %q wand %+v acc=%d: total %d, want %d", ctx, query, opts, acc, gotWT, len(want))
			}
		}
	}
}

func parseDewey(s string) (dewey.ID, error) { return dewey.Parse(s) }

// refEngine is the read surface shared by the in-process references
// (shard.Engine cold, update.Engine live).
type refEngine interface {
	cursorer
	RankResults(results []*xseek.Result, query string) []*xseek.RankedResult
}

// cursorer is any executor's doc-order read path.
type cursorer interface {
	SearchStream(query string) (xseek.Cursor, error)
}

// searchOf drains e's doc-order cursor: its search result list.
func searchOf(e cursorer, query string) ([]*xseek.Result, error) {
	c, err := e.SearchStream(query)
	if err != nil {
		return nil, err
	}
	return xseek.Drain(c)
}

// rankWindow is the options' window of a full ranking.
func rankWindow(ranked []*xseek.RankedResult, opts xseek.SearchOptions) []*xseek.RankedResult {
	lo, hi := opts.Window(len(ranked))
	return ranked[lo:hi]
}

// TestCoordinatorEquivalence is the tentpole property test: on random
// corpora and queries, the HTTP coordinator at K ∈ {1, 2, 4} must be
// bit-identical to the in-process sharded engine on every read path.
func TestCoordinatorEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	trees := 6
	queriesPerTree := 8
	for ti := 0; ti < trees; ti++ {
		doc := randomDoc(r, vocab)
		root := xmltree.MustParseString(doc)
		for _, k := range []int{1, 2, 4} {
			ref := shard.Build(root, k)
			cl := startCluster(t, k, doc, dist.Config{})
			for qi := 0; qi < queriesPerTree; qi++ {
				n := r.Intn(3) + 1
				terms := make([]string, n)
				for i := range terms {
					terms[i] = vocab[r.Intn(len(vocab))]
				}
				query := strings.Join(terms, " ")
				checkEquivalence(t, ref, cl.co, query, fmt.Sprintf("tree %d K=%d", ti, k))
			}
			if cq := cl.co.CleanQuery("alpah"); fmt.Sprint(cq) != fmt.Sprint(ref.CleanQuery("alpah")) {
				t.Fatalf("tree %d K=%d CleanQuery: %v vs %v", ti, k, cq, ref.CleanQuery("alpah"))
			}
		}
	}
}

// TestCoordinatorLiveEquivalence interleaves adds, removes, and
// compactions through the coordinator and an in-process live engine
// over the same corpus, checking bit-identity after every step —
// including the epoch bumps, ordinal holes after removals, and the
// renumbering compaction.
func TestCoordinatorLiveEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	for ti := 0; ti < 3; ti++ {
		doc := randomDoc(r, vocab)
		for _, k := range []int{1, 2, 4} {
			ref := update.Wrap(xseek.New(xmltree.MustParseString(doc)))
			cl := startCluster(t, k, doc, dist.Config{})
			ctx := func(step int, op string) string {
				return fmt.Sprintf("tree %d K=%d step %d after %s", ti, k, step, op)
			}
			var ids []string // live entity IDs added through both sides
			for step := 0; step < 12; step++ {
				var op string
				switch choice := r.Intn(6); {
				case choice <= 2: // add
					frag := entityDoc(r, vocab)
					wantID, err := ref.AddEntity(xmltree.MustParseString(frag))
					if err != nil {
						t.Fatalf("%s: ref add: %v", ctx(step, "add"), err)
					}
					gotID, err := cl.co.AddEntity(xmltree.MustParseString(frag))
					if err != nil {
						t.Fatalf("%s: dist add: %v", ctx(step, "add"), err)
					}
					if gotID.String() != wantID.String() {
						t.Fatalf("%s: add ID %s vs %s", ctx(step, "add"), gotID, wantID)
					}
					ids = append(ids, gotID.String())
					op = "add " + gotID.String()
				case choice <= 4 && len(ids) > 0: // remove a live-added entity
					i := r.Intn(len(ids))
					id := ids[i]
					ids = append(ids[:i], ids[i+1:]...)
					did, _ := parseDewey(id)
					wantErr := ref.RemoveEntity(did)
					gotErr := cl.co.RemoveEntity(did)
					if !sameError(wantErr, gotErr) {
						t.Fatalf("%s: remove %s: %v vs %v", ctx(step, "remove"), id, gotErr, wantErr)
					}
					op = "remove " + id
				default: // compact
					if err := ref.Compact(); err != nil {
						t.Fatalf("%s: ref compact: %v", ctx(step, "compact"), err)
					}
					if err := cl.co.Compact(); err != nil {
						t.Fatalf("%s: dist compact: %v", ctx(step, "compact"), err)
					}
					ids = nil // compaction may renumber; stale handles invalid
					op = "compact"
				}
				if got, want := cl.co.Epoch(), ref.Epoch(); got != want {
					t.Fatalf("%s: epoch %d vs %d", ctx(step, op), got, want)
				}
				for qi := 0; qi < 3; qi++ {
					terms := make([]string, r.Intn(2)+1)
					for i := range terms {
						terms[i] = vocab[r.Intn(len(vocab))]
					}
					checkEquivalence(t, ref, cl.co, strings.Join(terms, " "), ctx(step, op))
				}
			}
		}
	}
}

// TestCoordinatorStatsEquivalence pins the aggregated corpus
// statistics — the integers every score is derived from — to the
// in-process engine's.
func TestCoordinatorStatsEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	vocab := []string{"alpha", "beta", "gamma", "delta"}
	doc := randomDoc(r, vocab)
	root := xmltree.MustParseString(doc)
	for _, k := range []int{1, 2, 4} {
		ref := shard.Build(root, k)
		cl := startCluster(t, k, doc, dist.Config{})
		if got, want := cl.co.TotalNodes(), ref.TotalNodes(); got != want {
			t.Fatalf("K=%d TotalNodes %d vs %d", k, got, want)
		}
		for _, term := range vocab {
			if got, want := cl.co.DocFreq(term), ref.DocFreq(term); got != want {
				t.Fatalf("K=%d DocFreq(%q) %d vs %d", k, term, got, want)
			}
			if got, want := cl.co.EstimateResults(term), ref.EstimateResults(term); got != want {
				t.Fatalf("K=%d EstimateResults(%q) %d vs %d", k, term, got, want)
			}
		}
		if got, want := cl.co.IndexStats(), ref.IndexStats(); got != want {
			t.Fatalf("K=%d IndexStats %+v vs %+v", k, got, want)
		}
	}
}

// TestCoordinatorBoundaryEntity pins the cross-group entity case the
// chaos harness first exposed: a singleton wrapper tag is spine at
// partition time (its subtree is split across groups), then a live add
// makes the tag repeated, so the re-inferred schema turns the wrapper
// into an entity. From then on, SLCAs inside different groups lift to
// the same spine-rooted entity; the coordinator must merge them into
// one result with the document-order-first witness, placed in document
// order, and score it with term counts summed across groups — exactly
// as the monolithic engine does.
func TestCoordinatorBoundaryEntity(t *testing.T) {
	// w wraps four segments (item is repeated, so n0 and w stay spine);
	// misc and misc2 are singletons whose nearest entity, once n0
	// becomes one, is n0 itself — on both sides of the group boundary.
	doc := "<root><n0><w>" +
		"<item><leaf>alpha beta </leaf><leaf>gamma </leaf></item>" +
		"<misc>alpha gamma </misc>" +
		"<item><leaf>beta delta </leaf><leaf>delta </leaf></item>" +
		"<misc2>alpha delta </misc2>" +
		"</w></n0><item><leaf>gamma epsilon </leaf></item></root>"
	queries := []string{"alpha", "gamma", "delta", "alpha gamma", "alpha delta", "beta epsilon"}
	for _, k := range []int{2, 3, 4} {
		ref := update.Wrap(xseek.New(xmltree.MustParseString(doc)))
		cl := startCluster(t, k, doc, dist.Config{})
		ctx := func(step string) string { return fmt.Sprintf("K=%d %s", k, step) }
		for _, q := range queries {
			checkEquivalence(t, ref, cl.co, q, ctx("bootstrap"))
		}

		// The add makes n0 repeated — from here on it is an entity whose
		// subtree straddles the group boundary.
		frag := "<n0><leaf>epsilon </leaf></n0>"
		wantID, err := ref.AddEntity(xmltree.MustParseString(frag))
		if err != nil {
			t.Fatalf("%s: ref add: %v", ctx("add"), err)
		}
		gotID, err := cl.co.AddEntity(xmltree.MustParseString(frag))
		if err != nil {
			t.Fatalf("%s: dist add: %v", ctx("add"), err)
		}
		if gotID.String() != wantID.String() {
			t.Fatalf("%s: add ID %s vs %s", ctx("add"), gotID, wantID)
		}
		for _, q := range queries {
			checkEquivalence(t, ref, cl.co, q, ctx("after add"))
		}

		// Removing it flips n0 back to a singleton non-entity; matches
		// must stop lifting to the spine again.
		if err := ref.RemoveEntity(wantID); err != nil {
			t.Fatalf("%s: ref remove: %v", ctx("remove"), err)
		}
		if err := cl.co.RemoveEntity(gotID); err != nil {
			t.Fatalf("%s: dist remove: %v", ctx("remove"), err)
		}
		for _, q := range queries {
			checkEquivalence(t, ref, cl.co, q, ctx("after remove"))
		}
	}
}

// TestMixedVersionWandField: older coordinators send KindRanked
// requests carrying a "wand" flag or an "approx" early-stop flag. Leg
// request decoding is lenient, so a leg must answer any such field
// with exactly what it answers without it — the coordinator's page and
// total stay bit-identical to the in-process fan-out — and this
// coordinator's own requests must carry neither field.
func TestMixedVersionWandField(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	vocab := []string{"alpha", "beta", "gamma", "delta"}
	doc := randomDoc(r, vocab)
	const k = 2
	var (
		inject atomic.Value // [2]string: the retired field and value spliced into ranked requests
		ranked atomic.Int64 // ranked leg requests seen
		sent   atomic.Int64 // coordinator requests that carried a retired field themselves
	)
	cl := startClusterWrapped(t, k, doc, dist.Config{}, func(g int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path == "/shard/v1/query" {
				body, err := io.ReadAll(req.Body)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				var m map[string]json.RawMessage
				if err := json.Unmarshal(body, &m); err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				for _, f := range []string{"wand", "approx"} {
					if _, ok := m[f]; ok {
						sent.Add(1)
					}
				}
				if string(m["kind"]) == `"`+dist.KindRanked+`"` {
					ranked.Add(1)
					field := inject.Load().([2]string)
					m[field[0]] = json.RawMessage(field[1])
					if body, err = json.Marshal(m); err != nil {
						http.Error(w, err.Error(), http.StatusInternalServerError)
						return
					}
				}
				req.Body = io.NopCloser(bytes.NewReader(body))
				req.ContentLength = int64(len(body))
			}
			h.ServeHTTP(w, req)
		})
	})
	ref := shard.Build(xmltree.MustParseString(doc), k)
	queries := []string{"alpha", "beta", "alpha beta", "gamma delta"}
	for _, field := range [][2]string{{"wand", "true"}, {"wand", "false"}, {"approx", "true"}} {
		inject.Store(field)
		for _, query := range queries {
			for _, opts := range []xseek.SearchOptions{{Limit: 1}, {Limit: 3}, {Limit: 2, Offset: 2}} {
				for _, acc := range []xseek.Accuracy{xseek.AccuracyExact, xseek.AccuracyApprox} {
					ctx := fmt.Sprintf("%s=%s query %q page %+v acc=%d", field[0], field[1], query, opts, acc)
					opts.Accuracy = acc
					want, wantTotal, _, wantErr := ref.SearchRankedPageWAND(query, opts)
					got, gotTotal, _, gotErr := cl.co.SearchRankedPageWAND(query, opts)
					if !sameError(wantErr, gotErr) {
						t.Fatalf("%s: err %v vs %v", ctx, gotErr, wantErr)
					}
					if rankedKey(got) != rankedKey(want) {
						t.Fatalf("%s:\n got  %s\n want %s", ctx, rankedKey(got), rankedKey(want))
					}
					if gotTotal != wantTotal {
						t.Fatalf("%s: total %d vs %d", ctx, gotTotal, wantTotal)
					}
				}
			}
		}
	}
	if ranked.Load() == 0 {
		t.Fatal("no ranked leg request reached the legs")
	}
	if n := sent.Load(); n != 0 {
		t.Fatalf("coordinator sent a retired field on %d requests", n)
	}
}
