package xsact

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/table"
	"repro/internal/xseek"
)

// Markdown renders the comparison as a GitHub-flavoured Markdown table.
func (c *Comparison) Markdown() string { return c.tbl.Markdown() }

// CSV renders the comparison as CSV with a header row.
func (c *Comparison) CSV() string { return c.tbl.CSV() }

// SearchRanked runs Search and orders results by TF-IDF relevance
// (most relevant first) instead of document order. Scores accompany
// the results.
func (d *Document) SearchRanked(query string) ([]*Result, []float64, error) {
	ranked, err := d.eng.SearchRanked(query)
	if err != nil {
		return nil, nil, err
	}
	out := make([]*Result, len(ranked))
	scores := make([]float64, len(ranked))
	for i, r := range ranked {
		out[i] = &Result{doc: d, res: r.Result, Label: r.Label}
		scores[i] = r.Score
	}
	return out, scores, nil
}

// SearchPage runs Search and returns one window of the document-order
// result list plus the total result count. limit <= 0 returns
// everything from offset on; an out-of-range offset yields an empty
// page, not an error. Concatenating consecutive pages reproduces
// Search's full result list.
func (d *Document) SearchPage(query string, limit, offset int) ([]*Result, int, error) {
	page, err := d.eng.SearchPage(query, xseek.SearchOptions{Limit: limit, Offset: offset})
	if err != nil {
		return nil, 0, err
	}
	out := make([]*Result, len(page.Results))
	for i, r := range page.Results {
		out[i] = &Result{doc: d, res: r, Label: r.Label}
	}
	return out, page.Total, nil
}

// SearchRankedPage is SearchPage over the relevance ordering. A query
// already in the engine's cache is ranked once and every later page is
// a window of that ranking. Small windows over large uncached result
// sets route automatically to the engine's streamed pipeline, which
// never materializes the full result list; both routes return
// identical pages and exact totals. Concatenating consecutive pages
// reproduces SearchRanked.
func (d *Document) SearchRankedPage(query string, limit, offset int) ([]*Result, []float64, int, error) {
	page, err := d.eng.SearchRankedPage(query, xseek.SearchOptions{Limit: limit, Offset: offset})
	if err != nil {
		return nil, nil, 0, err
	}
	out := make([]*Result, len(page.Results))
	scores := make([]float64, len(page.Results))
	for i, r := range page.Results {
		out[i] = &Result{doc: d, res: r.Result, Label: r.Label}
		scores[i] = r.Score
	}
	return out, scores, page.Total, nil
}

// RankedPageOptions selects one window of the relevance ranking and
// how much accuracy it may trade for speed.
type RankedPageOptions struct {
	// Limit bounds the page size; <= 0 returns everything from Offset.
	Limit int
	// Offset is the window start in rank order.
	Offset int
	// Approx lets the engine stop scanning once no later result can
	// enter the page. The page itself stays exact — identical results,
	// scores, and order — but the returned total may be TotalUnknown.
	// Only a distributed Document's fan-out always returns the exact
	// total.
	Approx bool
}

// SearchRankedPageOpts is SearchRankedPage with explicit options: the
// same exact page either way, plus the approximate mode that trades
// the exact total for an early stop on broad queries.
func (d *Document) SearchRankedPageOpts(query string, opts RankedPageOptions) ([]*Result, []float64, int, error) {
	acc := xseek.AccuracyExact
	if opts.Approx {
		acc = xseek.AccuracyApprox
	}
	page, err := d.eng.SearchRankedPage(query, xseek.SearchOptions{Limit: opts.Limit, Offset: opts.Offset, Accuracy: acc})
	if err != nil {
		return nil, nil, 0, err
	}
	out := make([]*Result, len(page.Results))
	scores := make([]float64, len(page.Results))
	for i, r := range page.Results {
		out[i] = &Result{doc: d, res: r.Result, Label: r.Label}
		scores[i] = r.Score
	}
	return out, scores, page.Total, nil
}

// TotalUnknown is the total reported by SearchStreamPage when the
// underlying stream stopped at the window's end without reaching the
// last result — the exact total would cost draining the stream, which
// is precisely what streamed paging avoids.
const TotalUnknown = xseek.StreamTotalUnknown

// SearchStreamPage is SearchPage over the lazy streaming pipeline: the
// engine pulls results one at a time from an early-terminating
// iterator stack and stops at the window's end, so the first page of a
// huge result list costs one page of work. Consecutive pages resume a
// cached cursor instead of re-searching. The returned total is
// TotalUnknown until some window reaches the end of the results;
// within any fixed epoch, concatenating consecutive pages reproduces
// Search's full result list.
func (d *Document) SearchStreamPage(query string, limit, offset int) ([]*Result, int, error) {
	page, err := d.eng.SearchStreamPage(query, xseek.SearchOptions{Limit: limit, Offset: offset})
	if err != nil {
		return nil, 0, err
	}
	out := make([]*Result, len(page.Results))
	for i, r := range page.Results {
		out[i] = &Result{doc: d, res: r, Label: r.Label}
	}
	return out, page.Total, nil
}

// SearchCleaned spell-corrects the query against the corpus vocabulary
// (edit distance ≤ 2) before searching, returning the corrected
// keywords so callers can show "did you mean".
func (d *Document) SearchCleaned(query string) ([]*Result, []string, error) {
	rs, cleaned, err := d.eng.SearchCleaned(query)
	if err != nil {
		return nil, cleaned, err
	}
	out := make([]*Result, len(rs))
	for i, r := range rs {
		out[i] = &Result{doc: d, res: r, Label: r.Label}
	}
	return out, cleaned, nil
}

// Library is a set of named documents with database selection: queries
// route to the corpus that covers their keywords best, the paper's
// "database selection" companion technique.
type Library struct {
	docs  map[string]*Document
	order []string
}

// NewLibrary creates an empty library.
func NewLibrary() *Library {
	return &Library{docs: make(map[string]*Document)}
}

// Add registers a document under a name, replacing any previous entry
// with that name.
func (l *Library) Add(name string, doc *Document) {
	if _, exists := l.docs[name]; !exists {
		l.order = append(l.order, name)
	}
	l.docs[name] = doc
}

// Names lists the registered documents in insertion order.
func (l *Library) Names() []string {
	out := make([]string, len(l.order))
	copy(out, l.order)
	return out
}

// Search routes the query to the best-covering corpus and searches it,
// returning the chosen corpus name alongside the results. Selection
// works over distributed documents too (a coordinator's term
// statistics are aggregated across its legs).
func (l *Library) Search(query string) (string, []*Result, error) {
	engines := make(map[string]*engine.Engine, len(l.docs))
	for name, d := range l.docs {
		engines[name] = d.eng
	}
	name, _ := engine.SelectEngine(engines, query)
	if name == "" {
		return "", nil, fmt.Errorf("xsact: no registered corpus contains keywords of %q", query)
	}
	results, err := l.docs[name].Search(query)
	return name, results, err
}

// CompareInteresting is Compare with contrast-based interestingness
// steering (the paper's future-work factor): feature types on which
// the results' frequencies disagree most strongly are favoured. It
// uses the weighted-greedy generator.
func CompareInteresting(results []*Result, opts CompareOptions) (*Comparison, error) {
	if len(results) < 2 {
		return nil, fmt.Errorf("xsact: comparison needs at least 2 results, got %d", len(results))
	}
	doc, inner, err := sameDocResults(results)
	if err != nil {
		return nil, err
	}
	stats := doc.eng.StatsForResults(inner)
	copts := core.Options{SizeBound: opts.SizeBound, Threshold: opts.Threshold}
	dfss := core.WeightedGreedy(stats, copts, core.ContrastInterest(stats))
	cmp := &Comparison{
		tbl: table.Build(dfss),
		DoD: core.TotalDoD(dfss, opts.Threshold),
	}
	for _, s := range stats {
		cmp.Labels = append(cmp.Labels, s.Label)
	}
	return cmp, nil
}
