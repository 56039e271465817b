package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/dewey"
	"repro/internal/engine"
	"repro/internal/feature"
	"repro/internal/index"
	"repro/internal/snippet"
	"repro/internal/table"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

const pageLimit = 10

// rankedOpts is the window every ranked read asks for.
func rankedOpts(kind opKind) xseek.SearchOptions {
	opts := xseek.SearchOptions{Limit: pageLimit}
	if kind == opRankedApprox {
		opts.Accuracy = xseek.AccuracyApprox
	}
	return opts
}

// noMatch reports the engine's "a keyword matches nothing" outcome,
// which is an answer, not a failure.
func noMatch(err error) bool {
	var nm *index.NoMatchError
	return errors.As(err, &nm)
}

// pageKey fingerprints a doc-order page: result IDs in order.
func pageKey(rs []*xseek.Result, total int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d", total)
	for _, r := range rs {
		b.WriteByte(';')
		b.WriteString(r.Node.ID.String())
	}
	return b.String()
}

// rankedKey fingerprints a ranked page down to the score bits. An
// approximate page's total may be unknown, so only exact pages carry it.
func rankedKey(rs []*xseek.RankedResult, total int, exact bool) string {
	var b strings.Builder
	if exact {
		fmt.Fprintf(&b, "n=%d", total)
	}
	for _, r := range rs {
		fmt.Fprintf(&b, ";%s@%016x", r.Node.ID, math.Float64bits(r.Score))
	}
	return b.String()
}

// pickResult maps a snippet op's fraction onto a result list.
func pickResult(rs []*xseek.Result, pick float64) *xseek.Result {
	i := int(pick * float64(len(rs)))
	if i >= len(rs) {
		i = len(rs) - 1
	}
	return rs[i]
}

// doRead runs one read op through the serving engine. It returns the
// op's output fingerprint when want is set (sampled ops only: building
// it is not free) and an error for anything but a served answer. A
// keyword matching nothing is a served answer.
func doRead(eng *engine.Engine, pool []poolQuery, op readOp, want bool) (string, error) {
	q := pool[op.Query].Text
	switch op.Kind {
	case opDocPage:
		page, _, err := eng.SearchCleanedPage(q, xseek.SearchOptions{Limit: pageLimit})
		if err != nil {
			if noMatch(err) {
				return "nomatch", nil
			}
			return "", err
		}
		if want {
			return pageKey(page.Results, page.Total), nil
		}
	case opRankedExact, opRankedApprox:
		page, err := eng.SearchRankedPage(q, rankedOpts(op.Kind))
		if err != nil {
			if noMatch(err) {
				return "nomatch", nil
			}
			return "", err
		}
		if want {
			return rankedKey(page.Results, page.Total, op.Kind == opRankedExact), nil
		}
	case opSnippet:
		rs, err := eng.Search(q)
		if err != nil {
			if noMatch(err) {
				return "nomatch", nil
			}
			return "", err
		}
		if len(rs) == 0 {
			return "", fmt.Errorf("query %q: no results and no error", q)
		}
		r := pickResult(rs, op.Pick)
		sn := snippet.Generate(eng.Stats(r.Node, r.Label), snippet.Options{Query: q})
		if want {
			return sn.String(), nil
		}
	}
	return "", nil
}

// oracleRead computes the fingerprint doRead must produce, through the
// eager reference path only: Search materializes every result, then
// RankPage scores and cuts the window. The streamed, WAND and
// distributed routes are all required to be bit-identical to it.
func oracleRead(x *xseek.Engine, pool []poolQuery, op readOp) (string, error) {
	q := pool[op.Query].Text
	if op.Kind == opDocPage {
		q = strings.Join(x.CleanQuery(q), " ")
	}
	rs, err := x.Search(q)
	if err != nil {
		if noMatch(err) {
			return "nomatch", nil
		}
		return "", err
	}
	switch op.Kind {
	case opDocPage:
		lo, hi := xseek.SearchOptions{Limit: pageLimit}.Window(len(rs))
		return pageKey(rs[lo:hi], len(rs)), nil
	case opRankedExact, opRankedApprox:
		page := x.RankPage(rs, q, xseek.SearchOptions{Limit: pageLimit})
		return rankedKey(page, len(rs), op.Kind == opRankedExact), nil
	default:
		r := pickResult(rs, op.Pick)
		st := feature.Extract(r.Node, x.Schema(), r.Label)
		return snippet.Generate(st, snippet.Options{Query: q}).String(), nil
	}
}

// sampleEvery is the output-check sampling rate: one op in fifty has
// its output fingerprinted and later compared with the oracle.
const sampleEvery = 50

// sampledRead is a fingerprinted op awaiting its oracle comparison.
type sampledRead struct {
	op readOp
	fp string
}

// readClient is one closed-loop read client: a deterministic op
// sequence against an engine, counting failures and sampling outputs.
type readClient struct {
	eng     *engine.Engine
	pool    []poolQuery
	src     *opSource
	n       int
	samples []sampledRead
	lastErr error
}

func newReadClient(eng *engine.Engine, pool []poolQuery, seed int64, client int) *readClient {
	return &readClient{eng: eng, pool: pool, src: newOpSource(seed, client, len(pool))}
}

// next implements clientFn.
func (c *readClient) next() (uint8, bool) {
	op := c.src.nextRead()
	want := c.n%sampleEvery == 0
	c.n++
	fp, err := doRead(c.eng, c.pool, op, want)
	if err != nil {
		c.lastErr = err
		return streamMain, false
	}
	if want {
		c.samples = append(c.samples, sampledRead{op, fp})
	}
	return streamMain, true
}

// verifySamples compares every sampled output with the eager oracle
// and returns how many were checked and how many differed.
func verifySamples(x *xseek.Engine, pool []poolQuery, clients []*readClient, kinds func(opKind) bool) (checked, failed int, detail string) {
	for _, c := range clients {
		for _, s := range c.samples {
			if kinds != nil && !kinds(s.op.Kind) {
				continue
			}
			checked++
			want, err := oracleRead(x, pool, s.op)
			if err != nil || want != s.fp {
				failed++
				if detail == "" {
					detail = fmt.Sprintf("%s %q: got %.80q want %.80q err %v", kindNames[s.op.Kind], pool[s.op.Query].Text, s.fp, want, err)
				}
			}
		}
	}
	return checked, failed, detail
}

// --- the comparison pipeline ---

// compareAlgs alternate over a selection list.
var compareAlgs = []core.Algorithm{core.AlgSingleSwap, core.AlgMultiSwap}

// compareKs and compareKMix are the top-k sizes compared and their mix.
var (
	compareKs   = []int{5, 10, 20}
	compareKMix = []float64{0.40, 0.40, 0.20}
)

// compareOptions are the paper's defaults: L = 10, x = 0.1.
var compareOptions = core.Options{SizeBound: 10, Threshold: 0.10}

// selection is one comparison a user could ask for: the top k ranked
// results of a query, differentiated by one algorithm.
type selection struct {
	Query string
	K     int
	Alg   core.Algorithm
}

const (
	numSelections = 1024
	// compareQueries is how many distinct queries the selections span:
	// few enough that all their result lists stay in the engine's
	// 256-entry query LRU, so the read half of a compare op is a hit.
	compareQueries = 192
)

// buildSelections derives the fixed selection list from the pool:
// narrow-class queries with at least max(k) results, each under
// several (k, algorithm) combinations. A corpus too small to have such
// queries (the smoke test's) compares whatever has two results.
func buildSelections(pool []poolQuery) []selection {
	r := rand.New(rand.NewSource(poolSeed + 1))
	eligible := func(minResults int) []string {
		var queries []string
		for _, q := range pool {
			if q.Class == classNarrow && q.Results >= minResults && len(queries) < compareQueries {
				queries = append(queries, q.Text)
			}
		}
		return queries
	}
	queries := eligible(compareKs[len(compareKs)-1])
	if len(queries) == 0 {
		queries = eligible(2)
	}
	if len(queries) == 0 {
		return nil
	}
	sels := make([]selection, 0, numSelections)
	seen := make(map[selection]bool)
	for len(sels) < numSelections && len(seen) < len(queries)*len(compareKs)*len(compareAlgs) {
		s := selection{
			Query: queries[r.Intn(len(queries))],
			K:     compareKs[pickKind(r, compareKMix)],
			Alg:   compareAlgs[len(sels)%len(compareAlgs)],
		}
		if !seen[s] {
			seen[s] = true
			sels = append(sels, s)
		}
	}
	return sels
}

// selectionQueries returns the distinct queries of a selection list.
func selectionQueries(sels []selection) []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range sels {
		if !seen[s.Query] {
			seen[s.Query] = true
			out = append(out, s.Query)
		}
	}
	return out
}

// topResults returns the selection's results: the ranked top k.
func topResults(eng *engine.Engine, s selection) ([]*xseek.Result, error) {
	page, err := eng.SearchRankedPage(s.Query, xseek.SearchOptions{Limit: s.K})
	if err != nil {
		return nil, err
	}
	rs := make([]*xseek.Result, len(page.Results))
	for i, r := range page.Results {
		rs[i] = r.Result
	}
	if len(rs) < 2 {
		return nil, fmt.Errorf("selection %q k=%d: %d results, need two to compare", s.Query, s.K, len(rs))
	}
	return rs, nil
}

// doCompare runs the paper's pipeline for one selection — ranked top-k,
// DFS generation, comparison table, total DoD, HTML — and returns the
// DFS set's total DoD.
func doCompare(eng *engine.Engine, s selection, html io.Writer) (int, error) {
	rs, err := topResults(eng, s)
	if err != nil {
		return 0, err
	}
	dfss := eng.Generate(s.Alg, rs, compareOptions)
	if dfss == nil {
		return 0, fmt.Errorf("unknown algorithm %q", s.Alg)
	}
	tbl := table.Build(dfss)
	dod := core.TotalDoD(dfss, compareOptions.Threshold)
	if err := tbl.WriteHTML(html); err != nil {
		return 0, err
	}
	return dod, nil
}

// checkDFS verifies a generated DFS set: every DFS is valid and within
// the size bound, and the set differentiates at least as well as the
// top-k baseline on the same results (both swap algorithms start from
// the top-k fill and only accept DoD-increasing moves).
func checkDFS(eng *engine.Engine, s selection) error {
	rs, err := topResults(eng, s)
	if err != nil {
		return err
	}
	dfss := eng.Generate(s.Alg, rs, compareOptions)
	if len(dfss) != len(rs) {
		return fmt.Errorf("%d DFSs for %d results", len(dfss), len(rs))
	}
	for _, d := range dfss {
		if err := d.Validate(compareOptions.SizeBound); err != nil {
			return err
		}
	}
	stats := make([]*feature.Stats, len(dfss))
	for i, d := range dfss {
		stats[i] = d.Stats
	}
	got := core.TotalDoD(dfss, compareOptions.Threshold)
	base := core.TotalDoD(core.Generate(core.AlgTopK, stats, compareOptions), compareOptions.Threshold)
	if got < base {
		return fmt.Errorf("%s DoD %d below top-k DoD %d on %q k=%d", s.Alg, got, base, s.Query, s.K)
	}
	return nil
}

// selectionSource yields a client's deterministic selection sequence.
type selectionSource struct {
	zipf *rand.Zipf
}

func newSelectionSource(seed int64, client, n int) *selectionSource {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + 29))
	return &selectionSource{zipf: rand.NewZipf(r, zipfS, 1, uint64(n-1))}
}

func (s *selectionSource) next() int { return int(s.zipf.Uint64()) }

// dodReplay runs the comparison pipeline once over each selection, in
// list order, and returns the mean total DoD and the number of DFS sets
// that failed checkDFS. The selection list is a property of the corpus,
// so the mean is exact: the same on every run and every seed, until an
// algorithm change moves it.
func dodReplay(eng *engine.Engine, sels []selection) (meanDoD float64, bad int, detail string, err error) {
	sum := 0
	for _, s := range sels {
		dod, err := doCompare(eng, s, io.Discard)
		if err != nil {
			return 0, 0, "", err
		}
		sum += dod
		if err := checkDFS(eng, s); err != nil {
			bad++
			if detail == "" {
				detail = err.Error()
			}
		}
	}
	return float64(sum) / float64(len(sels)), bad, detail, nil
}

// --- writes ---

// newMovie builds a movie entity in the corpus's own shape from the
// corpus's own vocabulary, tagged with a unique marker keyword so the
// entity can be found again after a compaction renumbers it.
func newMovie(f *corpusFacts, r *rand.Rand, marker string) *xmltree.Node {
	pick := func(tag string) string {
		vs := f.values[tag]
		return vs[r.Intn(len(vs))]
	}
	m := xmltree.NewElement("movie")
	m.Leaf("title", pick("title"))
	m.Leaf("year", pick("year"))
	m.Leaf("rating", pick("rating"))
	m.Leaf("genre", pick("genre"))
	m.Leaf("keyword", pick("keyword"))
	m.Leaf("keyword", marker)
	m.Leaf("director", pick("director"))
	m.Leaf("language", pick("language"))
	m.Leaf("country", pick("country"))
	cast := m.Elem("cast")
	for i := 0; i < 3; i++ {
		cast.Leaf("actor", pick("actor"))
	}
	return m
}

// entityWriter adds marked movies and removes them again. Entity IDs
// are positional and a compaction renumbers them, so a remove resolves
// its handle by searching the marker, and retries once when a
// compaction lands between the search and the remove.
type entityWriter struct {
	eng   *engine.Engine
	facts *corpusFacts
	r     *rand.Rand
	tag   string
	n     int
	// retries counts removes whose first handle was stale.
	retries int
}

func newEntityWriter(eng *engine.Engine, facts *corpusFacts, seed int64, tag string) *entityWriter {
	return &entityWriter{eng: eng, facts: facts, r: rand.New(rand.NewSource(seed*1_000_003 + 43)), tag: tag}
}

// add inserts the next marked movie and returns its marker.
func (w *entityWriter) add() (string, error) {
	marker := fmt.Sprintf("%s%dq", w.tag, w.n)
	w.n++
	_, err := w.eng.AddEntity(newMovie(w.facts, w.r, marker))
	return marker, err
}

// resolve finds the live top-level entity carrying marker.
func (w *entityWriter) resolve(marker string) (dewey.ID, error) {
	rs, err := w.eng.Search(marker)
	if err != nil {
		return nil, err
	}
	if len(rs) != 1 {
		return nil, fmt.Errorf("marker %s: %d results, want 1", marker, len(rs))
	}
	id := rs[0].Node.ID
	if len(id) == 0 {
		return nil, fmt.Errorf("marker %s resolved to the root", marker)
	}
	return id[:1], nil
}

// remove deletes the entity carrying marker.
func (w *entityWriter) remove(marker string) error {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			w.retries++
		}
		var id dewey.ID
		if id, err = w.resolve(marker); err != nil {
			continue
		}
		if err = w.eng.RemoveEntity(id); err == nil {
			return nil
		}
	}
	return err
}
