package main

import (
	"errors"
	"fmt"
	"html"
	"io"
	"io/fs"
	"log"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/table"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// sameKeywords reports whether the cleaned keywords equal the query's
// own tokens (i.e. no spelling correction happened).
func sameKeywords(query string, cleaned []string) bool {
	orig := index.TokenizeQuery(query)
	if len(orig) != len(cleaned) {
		return false
	}
	for i := range orig {
		if orig[i] != cleaned[i] {
			return false
		}
	}
	return true
}

// lazyEngine defers corpus generation and engine construction to the
// first request that needs the dataset, then shares the one engine —
// and all its caches — across every later request.
//
// It deliberately uses a mutex rather than sync.Once: a panic inside
// once.Do consumes the Once, so every later request would receive a
// nil engine and crash on dereference. Here a panicking build unwinds
// through the unlock and leaves eng nil, and the next request simply
// retries the build.
type lazyEngine struct {
	mu    sync.Mutex // serializes builds only; eng is read lock-free
	build func() *engine.Engine
	eng   atomic.Pointer[engine.Engine]
}

func (l *lazyEngine) get() *engine.Engine {
	if eng := l.eng.Load(); eng != nil {
		return eng
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if eng := l.eng.Load(); eng != nil {
		return eng // another request built it while we waited
	}
	eng := l.build()
	l.eng.Store(eng)
	return eng
}

// peek returns the engine if it has been built, without forcing — or
// waiting on — a build: the metrics endpoint must not stall behind an
// in-flight engine construction.
func (l *lazyEngine) peek() *engine.Engine {
	return l.eng.Load()
}

// server holds one lazily-built, shared serving engine per dataset,
// plus the snapshot configuration writes persist through.
type server struct {
	datasets     map[string]*lazyEngine
	order        []string
	slugs        map[string]string // dataset name → snapshot file slug
	seed         int64
	snapshotDir  string
	compactEvery int
	// snapMu serializes snapshot saves: each save captures the
	// engine's state at save time (under the lock), so rename order
	// matches capture order and a stale image can never replace a newer
	// one when write handlers race.
	snapMu sync.Mutex
}

// newServer assembles the dataset table. When snapshotDir is non-empty
// each engine build first tries to reload from
// <snapshotDir>/<slug>-seed<seed>.snap, and writes that file back after
// a fresh build, so the second server startup skips index construction
// and schema inference entirely.
func newServer(seed int64, snapshotDir string, compactEvery int) (*server, error) {
	s := &server{
		datasets: make(map[string]*lazyEngine), slugs: make(map[string]string),
		seed: seed, snapshotDir: snapshotDir, compactEvery: compactEvery,
	}
	for _, d := range datasetDefs(seed) {
		d := d
		s.datasets[d.name] = &lazyEngine{build: func() *engine.Engine {
			return s.buildEngine(d.name, d.gen)
		}}
		s.order = append(s.order, d.name)
		s.slugs[d.name] = d.slug
	}
	return s, nil
}

// buildEngine generates a dataset's corpus and produces its serving
// engine, reloading it from the dataset's snapshot when one is present
// and valid. Snapshot failures are never fatal — a bad file (a retired
// v1/v2 layout included) just costs a rebuild, and is replaced by a
// fresh snapshot afterwards. A snapshot that embeds its corpus, or
// one in a retired layout that persist had to rebuild the index for
// (meta.Rebuilt: v3, sharded v4, or v4 postings without block maxima),
// is rewritten at once from the loaded engine, so a retired file is
// read only once.
func (s *server) buildEngine(name string, gen func() *xmltree.Node) *engine.Engine {
	root := gen()
	cfg := engine.Config{AutoCompactThreshold: s.compactEvery}
	if s.snapshotDir == "" {
		return engine.NewWithConfig(root, cfg)
	}
	path := s.snapshotPath(name)
	// A snapshot of a never-written corpus is trusted only once persist
	// has verified its corpus fingerprint against the freshly generated
	// root, which deterministically encodes dataset and seed. A live
	// snapshot cannot match the generator's tree — it contains accepted
	// writes — so it carries its own base tree and is trusted via its
	// checksums; the file name (slug, seed) is what scopes it to this
	// dataset.
	eng, meta, err := persist.LoadFile(path, root, cfg)
	if err == nil {
		log.Printf("xsactd: %s: engine loaded from snapshot %s", name, path)
		if eng.CorpusEmbedded() || meta.Rebuilt {
			if err := s.writeSnapshot(name, eng); err != nil {
				log.Printf("xsactd: %s: rewriting snapshot %s failed: %v", name, path, err)
			} else {
				log.Printf("xsactd: %s: rewrote snapshot %s in the current layout", name, path)
			}
		}
		return eng
	}
	if !errors.Is(err, fs.ErrNotExist) {
		log.Printf("xsactd: %s: snapshot %s unusable (%v); rebuilding", name, path, err)
	}
	built := engine.NewWithConfig(root, cfg)
	if err := s.writeSnapshot(name, built); err != nil {
		log.Printf("xsactd: %s: writing snapshot %s failed: %v", name, path, err)
	} else {
		log.Printf("xsactd: %s: wrote snapshot %s", name, path)
	}
	return built
}

// snapshotPath is where a dataset's snapshot lives.
func (s *server) snapshotPath(name string) string {
	return filepath.Join(s.snapshotDir, fmt.Sprintf("%s-seed%d.snap", s.slugs[name], s.seed))
}

// writeSnapshot atomically replaces a dataset's snapshot with eng's
// current state, under snapMu.
func (s *server) writeSnapshot(name string, eng *engine.Engine) error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return persist.SaveFile(s.snapshotPath(name), eng, persist.Meta{CorpusName: name, Seed: s.seed})
}

// engineFor returns the shared engine of a dataset, building it on
// first use. Unknown names return nil.
func (s *server) engineFor(name string) *engine.Engine {
	l, ok := s.datasets[name]
	if !ok {
		return nil
	}
	return l.get()
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleSearch)
	mux.HandleFunc("/compare", s.handleCompare)
	mux.HandleFunc("/result", s.handleResult)
	mux.HandleFunc("/api/v1/search", s.apiSearch)
	mux.HandleFunc("/api/v1/compare", s.apiCompare)
	mux.HandleFunc("/api/v1/snippet", s.apiSnippet)
	mux.HandleFunc("/api/v1/metrics", s.apiMetrics)
	mux.HandleFunc("/api/v1/documents", s.apiDocuments)
	mux.HandleFunc("/api/v1/compact", s.apiCompact)
	return mux
}

// saveSnapshot persists a dataset's engine after a successful write so
// a restart replays it: a live engine snapshots its base tree plus the
// journal of pending writes, or just the base once compacted.
// Failures are logged, never fatal: the live engine still serves the
// write, it just won't survive a restart.
func (s *server) saveSnapshot(name string) {
	if s.snapshotDir == "" {
		return
	}
	eng := s.engineFor(name)
	if eng == nil {
		return
	}
	if err := s.writeSnapshot(name, eng); err != nil {
		log.Printf("xsactd: %s: writing snapshot %s failed: %v", name, s.snapshotPath(name), err)
	}
}

const pageHead = `<!DOCTYPE html>
<html><head><title>XSACT — Structured Search Result Comparison</title>
<style>
body { font-family: sans-serif; margin: 2em; max-width: 70em; }
table.xsact-comparison { border-collapse: collapse; margin-top: 1em; }
table.xsact-comparison td, table.xsact-comparison th { border: 1px solid #999; padding: 4px 8px; }
td.unknown { color: #999; font-style: italic; }
.result { margin: 0.4em 0; }
</style></head><body>
<h1>XSACT</h1>
<p>Compare structured search results via Differentiation Feature Sets.</p>`

const pageFoot = `</body></html>`

// autoDataset is the dropdown entry for database selection: the server
// routes the query to the corpus that covers its keywords best.
const autoDataset = "Any (auto-select)"

// pageParams parses the optional limit/offset request parameters
// shared by the HTML and JSON search endpoints. Absent, malformed or
// negative values mean "no limit" / "no offset".
func pageParams(r *http.Request) (limit, offset int) {
	limit, _ = intParam(r, "limit")
	offset, _ = intParam(r, "offset")
	if limit < 0 {
		limit = 0
	}
	if offset < 0 {
		offset = 0
	}
	return limit, offset
}

func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	ds := formValue(r, "dataset")
	if ds == "" {
		ds = s.order[0]
	}
	query := formValue(r, "q")
	limit, offset := pageParams(r)

	// The search runs before any byte of the page is written, so a
	// server fault can still set the status.
	var res *htmlSearch
	if query != "" {
		res = s.searchHTML(ds, query, limit, offset)
		if res.status == http.StatusServiceUnavailable {
			w.Header()["Retry-After"] = retryAfter
		}
		if res.status != http.StatusOK {
			w.WriteHeader(res.status)
		}
	}
	fmt.Fprint(w, pageHead)
	fmt.Fprint(w, `<form method="get" action="/">dataset: <select name="dataset">`)
	for _, name := range append([]string{autoDataset}, s.order...) {
		sel := ""
		if name == ds {
			sel = " selected"
		}
		fmt.Fprintf(w, `<option%s>%s</option>`, sel, html.EscapeString(name))
	}
	limitVal := ""
	if limit > 0 {
		limitVal = strconv.Itoa(limit)
	}
	fmt.Fprintf(w, `</select> keywords: <input name="q" value="%s" size="40"> page size: <input name="limit" value="%s" size="4"> <button>Search</button></form>`,
		html.EscapeString(query), limitVal)

	if res != nil {
		res.render(w, query, limit)
	}
	fmt.Fprint(w, pageFoot)
}

// resolveDataset maps a request's dataset choice to a concrete
// dataset name: empty selects the first dataset, the auto entry runs
// database selection over every corpus's vocabulary (the one path
// that forces all engines to exist), anything else passes through.
// It returns "" when auto-selection finds no covering corpus. Both
// the HTML and JSON search paths route through it, so they always
// agree on which corpus serves a query.
func (s *server) resolveDataset(ds, query string) string {
	switch ds {
	case "":
		return s.order[0]
	case autoDataset:
		engines := make(map[string]*engine.Engine, len(s.datasets))
		for name, l := range s.datasets {
			engines[name] = l.get()
		}
		name, sel := engine.SelectEngine(engines, query)
		if sel == nil {
			return ""
		}
		return name
	default:
		return ds
	}
}

// htmlSearch is the HTML search page's outcome: the dataset that
// served the query and its page of results, or the notice shown
// instead of them. A query the corpus cannot answer keeps the page's
// 200, as the JSON search does; a server fault takes readError's 5xx.
type htmlSearch struct {
	ds      string
	auto    bool   // ds was picked by database selection
	notice  string // shown instead of results when non-empty
	status  int
	page    *engine.Page
	cleaned []string
}

// searchHTML resolves the dataset and runs the HTML page's search.
func (s *server) searchHTML(ds, query string, limit, offset int) *htmlSearch {
	res := &htmlSearch{ds: ds, status: http.StatusOK}
	if ds == autoDataset {
		if res.ds = s.resolveDataset(ds, query); res.ds == "" {
			res.notice = "no dataset contains keywords of " + query
			return res
		}
		res.auto = true
	}
	eng := s.engineFor(res.ds)
	if eng == nil {
		res.notice = "unknown dataset " + res.ds
		return res
	}
	page, cleaned, err := eng.SearchCleanedPage(query, xseek.SearchOptions{Limit: limit, Offset: offset})
	if err != nil {
		res.notice = "search error: " + err.Error()
		if herr := readError(err); herr.status != http.StatusBadRequest {
			res.status = herr.status
		}
		return res
	}
	res.page, res.cleaned = page, cleaned
	return res
}

// render writes the search's part of the HTML page.
func (res *htmlSearch) render(w io.Writer, query string, limit int) {
	ds, page, cleaned := res.ds, res.page, res.cleaned
	if res.auto {
		fmt.Fprintf(w, "<p>auto-selected dataset <b>%s</b></p>", html.EscapeString(ds))
	}
	if res.notice != "" {
		fmt.Fprintf(w, "<p>%s</p>", html.EscapeString(res.notice))
		return
	}
	if joined := strings.Join(cleaned, " "); !sameKeywords(query, cleaned) {
		fmt.Fprintf(w, "<p>showing results for <b>%s</b></p>", html.EscapeString(joined))
	}
	if len(page.Results) > 0 && len(page.Results) < page.Total {
		fmt.Fprintf(w, `<h2>%d results (showing %d–%d)</h2>`,
			page.Total, page.Offset+1, page.Offset+len(page.Results))
	} else {
		fmt.Fprintf(w, `<h2>%d results</h2>`, page.Total)
	}
	fmt.Fprintf(w, `<form method="get" action="/compare">
<input type="hidden" name="dataset" value="%s">
<input type="hidden" name="q" value="%s">
table size bound L: <input name="L" value="10" size="3">
algorithm: <select name="alg"><option>multi-swap</option><option>single-swap</option><option>top-k</option></select>
<button>Compare selected</button><br>`,
		html.EscapeString(ds), html.EscapeString(query))
	// Checkbox and detail-link indices are positions in the full result
	// list, so selections made on any page resolve to the same results
	// the compare and snippet endpoints see.
	for i, res := range page.Results {
		idx := page.Offset + i
		detail := fmt.Sprintf("/result?dataset=%s&q=%s&idx=%d",
			url.QueryEscape(ds), url.QueryEscape(query), idx)
		fmt.Fprintf(w, `<div class="result"><label><input type="checkbox" name="sel" value="%d"></label> <a href="%s">%s</a> — %s</div>`,
			idx, detail, html.EscapeString(res.Label), html.EscapeString(xseek.DescribeResult(res, 4)))
	}
	fmt.Fprint(w, `</form>`)
	if limit > 0 {
		pageLink := func(off int, label string) {
			fmt.Fprintf(w, ` <a href="/?dataset=%s&q=%s&limit=%d&offset=%d">%s</a>`,
				url.QueryEscape(ds), url.QueryEscape(query), limit, off, label)
		}
		if page.Offset > 0 {
			prev := page.Offset - limit
			if prev < 0 {
				prev = 0
			}
			pageLink(prev, "&laquo; prev")
		}
		if page.Offset+len(page.Results) < page.Total {
			pageLink(page.Offset+limit, "next &raquo;")
		}
	}
}

// resolveEngine maps a dataset choice (including omitted and the auto
// entry) to its serving engine via resolveDataset, so every endpoint
// accepts the same dataset spellings the search paths do.
func (s *server) resolveEngine(ds, query string) (string, *engine.Engine, *httpError) {
	ds = s.resolveDataset(ds, query)
	if ds == "" {
		return "", nil, &httpError{http.StatusNotFound, "no dataset contains the query keywords"}
	}
	eng := s.engineFor(ds)
	if eng == nil {
		return "", nil, &httpError{http.StatusBadRequest, "unknown dataset"}
	}
	return ds, eng, nil
}

// resultInput is a fully validated single-result request. The HTML
// detail page and the JSON snippet endpoint both resolve through it,
// so an index obtained from either search path names the same result
// in both.
type resultInput struct {
	dataset string
	query   string
	cleaned []string // the spell-corrected keywords the results answer
	eng     *engine.Engine
	idx     int
	res     *xseek.Result
}

// resolveResult parses and validates the dataset/q/idx parameters,
// mirroring the search handlers' query resolution exactly.
func (s *server) resolveResult(r *http.Request) (*resultInput, *httpError) {
	in := &resultInput{query: formValue(r, "q")}
	var herr *httpError
	in.dataset, in.eng, herr = s.resolveEngine(formValue(r, "dataset"), in.query)
	if herr != nil {
		return nil, herr
	}
	results, cleaned, err := in.eng.SearchCleaned(in.query)
	if err != nil {
		return nil, readError(err)
	}
	in.cleaned = cleaned
	var ok bool
	in.idx, ok = intParam(r, "idx")
	if !ok || in.idx < 0 || in.idx >= len(results) {
		return nil, &httpError{http.StatusBadRequest, "bad result index"}
	}
	in.res = results[in.idx]
	return in, nil
}

// handleResult shows one result's full subtree — the demo's "click the
// name of the result and the entire result will be shown".
func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	in, herr := s.resolveResult(r)
	if herr != nil {
		http.Error(w, herr.msg, herr.status)
		return
	}
	fmt.Fprint(w, pageHead)
	fmt.Fprintf(w, "<h2>%s</h2><pre>%s</pre>", html.EscapeString(in.res.Label),
		html.EscapeString(xmltree.XMLString(in.res.Node)))
	fmt.Fprintf(w, `<p><a href="/?dataset=%s&q=%s">back to results</a></p>`,
		url.QueryEscape(in.dataset), url.QueryEscape(in.query))
	fmt.Fprint(w, pageFoot)
}

// maxSizeBound caps the user-supplied table size bound L. Accepting
// unbounded values would let a single request demand arbitrarily large
// tables (and pollute the DFS cache with them); bounds beyond this are
// clamped rather than rejected.
const maxSizeBound = 50

// maxCompareSelections caps how many results one comparison may select.
// DFS generation and the DoD evaluation cost O(k²) result pairs per
// feature type, so an unbounded sel list would let a single request pin
// a core; more selections than this are rejected, not truncated.
const maxCompareSelections = 20

// httpError carries an HTTP status alongside a message through the
// request-resolution helpers shared by the HTML and JSON handlers.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// readError classifies an engine read error. A query the corpus cannot
// answer — no keywords, or keywords nothing matches — is the client's
// fault (400). A coordinator shedding load answers 503, which
// writeJSONError marks retryable. Anything else, a dead shard leg or a
// failed decode, is the server's fault (500), not a bad request.
func readError(err error) *httpError {
	var noMatch *index.NoMatchError
	switch {
	case errors.As(err, &noMatch), errors.Is(err, xseek.ErrEmptyQuery):
		return &httpError{http.StatusBadRequest, err.Error()}
	case errors.Is(err, dist.ErrOverloaded):
		return &httpError{http.StatusServiceUnavailable, err.Error()}
	}
	return &httpError{http.StatusInternalServerError, err.Error()}
}

// compareInput is a fully validated comparison request. Both the HTML
// and the JSON compare handlers resolve through it, so checkbox/index
// selections bind to exactly the results the search path produced.
type compareInput struct {
	dataset  string
	query    string
	eng      *engine.Engine
	selected []*xseek.Result
	bound    int
	alg      core.Algorithm
}

// resolveCompare parses and validates the dataset/q/L/alg/sel request
// parameters. The search must mirror the search handlers' exactly so
// the selection indices resolve to the same results.
func (s *server) resolveCompare(r *http.Request) (*compareInput, *httpError) {
	in := &compareInput{query: formValue(r, "q")}
	var herr *httpError
	in.dataset, in.eng, herr = s.resolveEngine(formValue(r, "dataset"), in.query)
	if herr != nil {
		return nil, herr
	}
	results, _, err := in.eng.SearchCleaned(in.query)
	if err != nil {
		return nil, readError(err)
	}
	in.bound, err = strconv.Atoi(strings.TrimSpace(formValue(r, "L")))
	if err != nil || in.bound < 1 {
		in.bound = core.DefaultSizeBound
	}
	if in.bound > maxSizeBound {
		in.bound = maxSizeBound
	}
	in.alg = core.Algorithm(formValue(r, "alg"))
	if in.alg == "" {
		in.alg = core.AlgMultiSwap // same default as the facade's Compare
	}
	k := 0
	eachFormValue(r, "sel", func(string) bool { k++; return true })
	if k > maxCompareSelections {
		return nil, &httpError{http.StatusBadRequest, fmt.Sprintf("select at most %d results to compare", maxCompareSelections)}
	}
	in.selected = make([]*xseek.Result, 0, k)
	valid := true
	eachFormValue(r, "sel", func(v string) bool {
		idx, err := strconv.Atoi(v)
		if valid = err == nil && idx >= 0 && idx < len(results); valid {
			in.selected = append(in.selected, results[idx])
		}
		return valid
	})
	if !valid {
		return nil, &httpError{http.StatusBadRequest, "bad selection"}
	}
	if len(in.selected) < 2 {
		return nil, &httpError{http.StatusBadRequest, "select at least two results to compare"}
	}
	return in, nil
}

// generate runs DFS generation for a validated comparison — the one
// post-resolution step, shared so the HTML and JSON paths cannot
// diverge in options or algorithm handling. Feature stats and the
// generated DFS set come from the engine's caches, so repeating a
// comparison does no re-extraction.
func (in *compareInput) generate() ([]*core.DFS, *httpError) {
	dfss := in.eng.Generate(in.alg, in.selected, core.Options{SizeBound: in.bound, Pad: true})
	if dfss == nil {
		return nil, &httpError{http.StatusBadRequest, "unknown algorithm"}
	}
	return dfss, nil
}

func (s *server) handleCompare(w http.ResponseWriter, r *http.Request) {
	in, herr := s.resolveCompare(r)
	if herr != nil {
		http.Error(w, herr.msg, herr.status)
		return
	}
	dfss, herr := in.generate()
	if herr != nil {
		http.Error(w, herr.msg, herr.status)
		return
	}
	fmt.Fprint(w, pageHead)
	fmt.Fprintf(w, "<h2>Comparison (%s, L=%d)</h2>", html.EscapeString(string(in.alg)), in.bound)
	if err := table.Build(dfss).WriteHTML(w); err != nil {
		return
	}
	fmt.Fprintf(w, "<p>total DoD = %d</p>", core.TotalDoD(dfss, core.DefaultThreshold))
	fmt.Fprintf(w, `<p><a href="/?dataset=%s&q=%s">back to results</a></p>`,
		url.QueryEscape(in.dataset), url.QueryEscape(in.query))
	fmt.Fprint(w, pageFoot)
}
