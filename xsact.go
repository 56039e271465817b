// Package xsact is the public API of the XSACT reproduction: keyword
// search over structured (XML) data plus automatic comparison of
// selected results via Differentiation Feature Sets (DFSs), as
// described in "XSACT: A Comparison Tool for Structured Search
// Results" (VLDB 2010) and "Structured Search Result Differentiation"
// (PVLDB 2009).
//
// The typical flow mirrors the demo system's architecture:
//
//	doc, _ := xsact.ParseString(xmlData)        // or BuiltinDataset
//	results, _ := doc.Search("tomtom gps")      // XSeek-style SLCA search
//	cmp, _ := xsact.Compare(results[:2], xsact.CompareOptions{SizeBound: 8})
//	fmt.Println(cmp.Text())                     // the comparison table
//
// The heavy lifting lives in the internal packages (xmltree, index,
// slca, xseek, feature, core, table); this package exposes a compact,
// stable surface over them.
package xsact

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/snippet"
	"repro/internal/table"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// Engine exposes the document's serving engine for callers that need
// cache metrics or lower-level access (benchmarks, the HTTP server).
func (d *Document) Engine() *engine.Engine { return d.eng }

// Document is a parsed, indexed XML corpus ready for search. It is a
// thin wrapper over the concurrent serving engine (internal/engine):
// searches, feature statistics, and generated DFS sets are cached
// there, and every method is safe for concurrent use. The corpus is
// live — AddEntity/RemoveEntity/Compact mutate it while it serves —
// so corpus reads go through the engine, not the construction-time
// root kept here.
type Document struct {
	root *xmltree.Node // the tree at construction; the live tree is eng.Root()
	eng  *engine.Engine
}

// Options configures how a Document's serving engine is built. The
// zero value is the default configuration.
type Options struct {
	// Shards splits the corpus into that many index shards, built in
	// parallel at top-level entity boundaries and read as one live
	// multi-part posting view (only a distributed coordinator runs a
	// fan-out). Results are identical to the unsharded engine; 0 or 1
	// keeps the single monolithic index. The count is clamped to the
	// number of top-level entities in the corpus.
	Shards int
	// AutoCompactEvery compacts the live write path in the background
	// once that many uncompacted writes (AddEntity/RemoveEntity calls)
	// are pending. 0 leaves compaction to explicit Compact calls.
	AutoCompactEvery int
}

// engineConfig translates the facade options to the engine layer's
// configuration.
func (o Options) engineConfig() engine.Config {
	return engine.Config{Shards: o.Shards, AutoCompactThreshold: o.AutoCompactEvery}
}

// Parse reads an XML document and builds the search engine (inverted
// index + schema summary) over it.
func Parse(r io.Reader) (*Document, error) {
	return ParseWith(r, Options{})
}

// ParseWith is Parse with explicit engine options.
func ParseWith(r io.Reader, opts Options) (*Document, error) {
	root, err := xmltree.Parse(r)
	if err != nil {
		return nil, err
	}
	return FromTreeWith(root, opts), nil
}

// ParseString is Parse over an in-memory document.
func ParseString(s string) (*Document, error) {
	return ParseStringWith(s, Options{})
}

// ParseStringWith is ParseString with explicit engine options.
func ParseStringWith(s string, opts Options) (*Document, error) {
	root, err := xmltree.ParseString(s)
	if err != nil {
		return nil, err
	}
	return FromTreeWith(root, opts), nil
}

// FromTree wraps an already-built tree (e.g. from a generator).
func FromTree(root *xmltree.Node) *Document {
	return FromTreeWith(root, Options{})
}

// FromTreeWith is FromTree with explicit engine options.
func FromTreeWith(root *xmltree.Node, opts Options) *Document {
	return &Document{root: root, eng: engine.NewWithConfig(root, opts.engineConfig())}
}

// BuiltinDataset loads one of the synthetic corpora: "reviews"
// (Product Reviews), "retailer" (Outdoor Retailer) or "movies"
// (the Figure 4 benchmark corpus). The seed makes runs reproducible.
func BuiltinDataset(name string, seed int64) (*Document, error) {
	return BuiltinDatasetWith(name, seed, Options{})
}

// BuiltinDatasetWith is BuiltinDataset with explicit engine options.
func BuiltinDatasetWith(name string, seed int64, opts Options) (*Document, error) {
	switch name {
	case "reviews":
		return FromTreeWith(dataset.ProductReviews(dataset.ReviewsConfig{Seed: seed}), opts), nil
	case "retailer":
		return FromTreeWith(dataset.OutdoorRetailer(dataset.RetailerConfig{Seed: seed}), opts), nil
	case "movies":
		return FromTreeWith(dataset.Movies(dataset.MoviesConfig{Seed: seed}), opts), nil
	default:
		return nil, fmt.Errorf("xsact: unknown builtin dataset %q", name)
	}
}

// Shards reports how many index shards the document's engine runs
// (1 when unsharded).
func (d *Document) Shards() int { return d.eng.ShardCount() }

// XML serializes the document back to XML. It reflects live updates:
// added entities appear, removed ones don't.
func (d *Document) XML() string { return xmltree.XMLString(d.eng.Root()) }

// Result is one search result: an entity subtree of the document.
type Result struct {
	doc *Document
	res *xseek.Result
	// Label is a short human identifier (product name, movie title...).
	Label string
}

// Search runs a keyword query and returns the matching entities in
// document order (XSeek semantics: SLCA matching, results lifted to
// their nearest enclosing entity).
func (d *Document) Search(query string) ([]*Result, error) {
	rs, err := d.eng.Search(query)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(rs))
	for i, r := range rs {
		out[i] = &Result{doc: d, res: r, Label: r.Label}
	}
	return out, nil
}

// Describe renders a one-line result listing (label plus leading
// attribute values), as the demo UI's result list does.
func (r *Result) Describe() string { return xseek.DescribeResult(r.res, 4) }

// Snippet returns the eXtract-style frequency snippet of the result —
// the baseline XSACT improves upon. Size 0 means 4 features.
func (r *Result) Snippet(query string, size int) string {
	stats := r.doc.eng.Stats(r.res.Node, r.Label)
	return snippet.Generate(stats, snippet.Options{Size: size, Query: query}).String()
}

// Lift re-roots the result at its nearest ancestor element with the
// given tag, or returns the result unchanged if no such ancestor
// exists. Use it to compare at a coarser granularity — e.g. lifting
// product results of "men jackets" to their brands, as in the paper's
// Outdoor Retailer walkthrough.
func (r *Result) Lift(tag string) *Result {
	for cur := r.res.Node.Parent; cur != nil; cur = cur.Parent {
		if cur.Kind == xmltree.Element && cur.Tag == tag {
			lifted := &xseek.Result{Node: cur, Match: r.res.Match, Label: xseek.LabelFor(cur)}
			return &Result{doc: r.doc, res: lifted, Label: lifted.Label}
		}
	}
	return r
}

// Dedupe removes results that share the same subtree root (useful
// after Lift, when several products collapse into one brand),
// preserving first occurrence order.
func Dedupe(results []*Result) []*Result {
	seen := make(map[string]bool)
	var out []*Result
	for _, r := range results {
		key := r.res.Node.ID.String()
		if !seen[key] {
			seen[key] = true
			out = append(out, r)
		}
	}
	return out
}

// SnippetDoD measures how well eXtract-style snippets of the given
// size differentiate the results: it generates each result's snippet
// independently (as Figure 1 of the paper does), interprets the
// snippets as feature selections, and evaluates the same DoD objective
// on them. This is the number XSACT's coordinated DFSs improve upon
// (the paper's Figure 1 snippets score 2 where its Figure 2 table
// scores 5).
func SnippetDoD(results []*Result, query string, size int) (int, error) {
	if len(results) < 2 {
		return 0, fmt.Errorf("xsact: snippet DoD needs at least 2 results, got %d", len(results))
	}
	doc, inner, err := sameDocResults(results)
	if err != nil {
		return 0, err
	}
	stats := doc.eng.StatsForResults(inner)
	dfss := make([]*core.DFS, len(results))
	for i, s := range stats {
		sn := snippet.Generate(s, snippet.Options{Size: size, Query: query})
		dfss[i] = &core.DFS{Stats: s, Sel: core.Selection(sn.AsSelection())}
	}
	return core.TotalDoD(dfss, core.DefaultThreshold), nil
}

// sameDocResults checks that all results come from one Document and
// unwraps them to the engine's result type.
func sameDocResults(results []*Result) (*Document, []*xseek.Result, error) {
	doc := results[0].doc
	inner := make([]*xseek.Result, len(results))
	for i, r := range results {
		if r.doc != doc {
			return nil, nil, fmt.Errorf("xsact: results from different documents")
		}
		inner[i] = r.res
	}
	return doc, inner, nil
}

// CompareOptions configures Compare.
type CompareOptions struct {
	// SizeBound is L, the max features per result. 0 = 10.
	SizeBound int
	// Threshold is x, the differentiation threshold. 0 = 0.10.
	Threshold float64
	// Algorithm is "multi-swap" (default), "single-swap" or "top-k".
	Algorithm string
}

// Comparison is the outcome of comparing a set of results.
type Comparison struct {
	tbl *table.Table
	// DoD is the total degree of differentiation achieved.
	DoD int
	// Labels names the compared results in column order.
	Labels []string
}

// Compare generates DFSs for the given results and assembles their
// comparison table. At least two results are required; they must come
// from the same Document.
func Compare(results []*Result, opts CompareOptions) (*Comparison, error) {
	if len(results) < 2 {
		return nil, fmt.Errorf("xsact: comparison needs at least 2 results, got %d", len(results))
	}
	doc, inner, err := sameDocResults(results)
	if err != nil {
		return nil, err
	}
	alg := core.Algorithm(opts.Algorithm)
	if opts.Algorithm == "" {
		alg = core.AlgMultiSwap
	}
	copts := core.Options{SizeBound: opts.SizeBound, Threshold: opts.Threshold, Pad: true}
	dfss := doc.eng.Generate(alg, inner, copts)
	if dfss == nil {
		return nil, fmt.Errorf("xsact: unknown algorithm %q", opts.Algorithm)
	}
	cmp := &Comparison{
		tbl: table.Build(dfss),
		DoD: core.TotalDoD(dfss, opts.Threshold),
	}
	for _, d := range dfss {
		cmp.Labels = append(cmp.Labels, d.Stats.Label)
	}
	return cmp, nil
}

// Text renders the comparison as an aligned plain-text table.
func (c *Comparison) Text() string { return c.tbl.Text() }

// HTML renders the comparison as an HTML <table> fragment.
func (c *Comparison) HTML() string { return c.tbl.HTML() }
