package main

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/index"
	"repro/internal/xmltree"
)

// The query generator. Everything a query is made of is read from the
// built corpus (distinct leaf values per tag, exact per-token movie
// sets), never hard-coded, so a generator change in internal/dataset
// changes the workload instead of silently missing it.
//
// The pool and its popularity ranking are a property of the corpus
// (poolSeed is fixed); the workload -seed drives only the op sequence
// drawn from it. Runs with different seeds therefore measure the same
// query population in a different order, which is what lets their
// medians be compared.

const (
	poolSize = 2048
	poolSeed = 1
	// zipfS is the popularity exponent: with 2048 queries about four
	// fifths of the draws land on the 256 most popular, so the engine's
	// default 256-entry query LRU sees a working set 8x its size.
	zipfS = 1.1
)

// queryClass names the four shapes the read path treats differently.
type queryClass uint8

const (
	classNarrow queryClass = iota // genre + keyword + one more field: 0.5%..5% of the movies (10^2..10^3 at 20k)
	classBroad                    // one or two common terms: 5%..50% of the movies (10^3..10^4 at 20k)
	classSkewed                   // rare actor/year + genre, list-length skew >= 48
	classMiss                     // one absent term
	numClasses
)

var classNames = [numClasses]string{"narrow", "broad", "skewed", "miss"}

// classShare is the pool composition asked for; a class the corpus
// cannot fill hands its remainder to narrow (see buildPool).
var classShare = [numClasses]float64{0.60, 0.15, 0.20, 0.05}

// poolQuery is one pool entry: the query text, its class, and the
// exact number of movies containing every keyword (the result count,
// since movies are the corpus's entities).
type poolQuery struct {
	Text    string
	Class   queryClass
	Results int
}

// corpusFacts is what one walk of the movie corpus yields.
type corpusFacts struct {
	movies int
	// values holds the sorted distinct leaf values per tag.
	values map[string][]string
	// postings is the number of leaf elements containing a token: the
	// token's posting-list length, up to elements whose tag equals it.
	postings map[string]int
	// members is the set of movies (by ordinal) containing a token.
	members map[string][]uint64
}

// readCorpus walks the movies once.
func readCorpus(root *xmltree.Node) *corpusFacts {
	f := &corpusFacts{
		movies:   len(root.Children),
		values:   make(map[string][]string),
		postings: make(map[string]int),
		members:  make(map[string][]uint64),
	}
	words := (f.movies + 63) / 64
	seen := make(map[string]map[string]bool)
	var leaf func(i int, n *xmltree.Node)
	leaf = func(i int, n *xmltree.Node) {
		if !n.IsLeafElement() {
			for _, c := range n.Children {
				if c.IsElement() {
					leaf(i, c)
				}
			}
			return
		}
		v := n.Value()
		if seen[n.Tag] == nil {
			seen[n.Tag] = make(map[string]bool)
		}
		if !seen[n.Tag][v] {
			seen[n.Tag][v] = true
			f.values[n.Tag] = append(f.values[n.Tag], v)
		}
		for _, t := range index.TokenizeQuery(v) {
			f.postings[t]++
			m := f.members[t]
			if m == nil {
				m = make([]uint64, words)
				f.members[t] = m
			}
			m[i/64] |= 1 << (i % 64)
		}
	}
	for i, movie := range root.Children {
		leaf(i, movie)
	}
	for _, vs := range f.values {
		sort.Strings(vs)
	}
	return f
}

// matches counts the movies containing every token of the query.
func (f *corpusFacts) matches(query string) int {
	terms := index.TokenizeQuery(query)
	if len(terms) == 0 {
		return 0
	}
	acc := make([]uint64, (f.movies+63)/64)
	for i, t := range terms {
		m := f.members[t]
		if m == nil {
			return 0
		}
		if i == 0 {
			copy(acc, m)
			continue
		}
		for w := range acc {
			acc[w] &= m[w]
		}
	}
	n := 0
	for _, w := range acc {
		n += bits.OnesCount64(w)
	}
	return n
}

// skew is the planner's signal for the query: longest over shortest
// posting list.
func (f *corpusFacts) skew(query string) float64 {
	lo, hi := 0, 0
	for i, t := range index.TokenizeQuery(query) {
		n := f.postings[t]
		if i == 0 || n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	if lo == 0 {
		return 0
	}
	return float64(hi) / float64(lo)
}

// candidates enumerates each class's distinct queries in a fixed
// order. Class membership is decided by measured counts, so the ranges
// in the class definitions hold by construction.
func (f *corpusFacts) candidates() [numClasses][]poolQuery {
	var out [numClasses][]poolQuery
	seen := make(map[string]bool)
	add := func(c queryClass, text string, lo, hi int) {
		key := queryKey(text)
		if seen[key] {
			return
		}
		n := f.matches(text)
		if n < lo || n > hi {
			return
		}
		seen[key] = true
		out[c] = append(out[c], poolQuery{Text: text, Class: c, Results: n})
	}
	genres := f.values["genre"]
	// The class ranges are shares of the corpus, so a small test corpus
	// yields the same classes as the 20k-movie one.
	narrowLo, narrowHi, broadHi := max(f.movies/200, 2), f.movies/20, f.movies/2

	// thirds are the single-valued fields a query can be narrowed by.
	var thirds []string
	for _, tag := range []string{"language", "country", "director"} {
		thirds = append(thirds, f.values[tag]...)
	}

	for _, g := range genres {
		for _, k := range f.values["keyword"] {
			for _, third := range thirds {
				add(classNarrow, g+" "+k+" "+third, narrowLo, narrowHi)
			}
		}
	}

	// Broad: single common terms first, then the two-term combinations
	// that still return thousands.
	for _, tag := range []string{"genre", "language", "country", "director", "keyword"} {
		for _, v := range f.values[tag] {
			add(classBroad, v, narrowHi, broadHi)
		}
	}
	for _, g := range genres {
		for _, v := range append(thirds[:len(thirds):len(thirds)], f.values["keyword"]...) {
			add(classBroad, g+" "+v, narrowHi, broadHi)
		}
	}

	// Skewed: a rare actor or a year drives; a genre (optionally
	// narrowed by a third field) supplies the long list. Only
	// combinations some movie satisfies are kept: an unsatisfied
	// conjunction's SLCA is the corpus root, a different workload.
	rare := append(append([]string(nil), f.values["actor"]...), f.values["year"]...)
	for _, r := range rare {
		for _, g := range genres {
			for _, third := range append([]string{""}, thirds...) {
				q := strings.TrimSpace(r + " " + g + " " + third)
				if f.skew(q) >= 48 {
					add(classSkewed, q, 1, f.movies)
				}
			}
		}
	}

	for i := 0; len(out[classMiss]) < poolSize; i++ {
		absent := fmt.Sprintf("zq%dx", i)
		if f.postings[absent] == 0 {
			g := genres[i%len(genres)]
			out[classMiss] = append(out[classMiss], poolQuery{Text: g + " " + absent, Class: classMiss})
		}
	}
	return out
}

// queryKey is the engine's cache key for a query: its sorted token
// set. Two pool entries with one key would be one cache slot.
func queryKey(q string) string {
	terms := index.TokenizeQuery(q)
	sort.Strings(terms)
	return strings.Join(terms, " ")
}

// buildPool draws the fixed query pool from the corpus: each class
// contributes its share of poolSize from its shuffled candidates, a
// class short of candidates passes the shortfall to narrow, and the
// final order — the popularity ranking — is one more shuffle, so every
// class is spread over the whole popularity range.
func buildPool(f *corpusFacts) []poolQuery {
	r := rand.New(rand.NewSource(poolSeed))
	cands := f.candidates()
	for c := range cands {
		r.Shuffle(len(cands[c]), func(i, j int) { cands[c][i], cands[c][j] = cands[c][j], cands[c][i] })
	}
	want := [numClasses]int{}
	total := 0
	for c := numClasses - 1; c > classNarrow; c-- {
		want[c] = int(classShare[c]*poolSize + 0.5)
		if want[c] > len(cands[c]) {
			want[c] = len(cands[c])
		}
		total += want[c]
	}
	want[classNarrow] = poolSize - total
	if want[classNarrow] > len(cands[classNarrow]) {
		want[classNarrow] = len(cands[classNarrow])
	}
	var pool []poolQuery
	for c := range cands {
		pool = append(pool, cands[c][:want[c]]...)
	}
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// poolComposition counts the pool's entries per class.
func poolComposition(pool []poolQuery) map[string]int {
	out := make(map[string]int, numClasses)
	for _, q := range pool {
		out[classNames[q.Class]]++
	}
	return out
}

// opKind is one kind of client operation.
type opKind uint8

const (
	opDocPage      opKind = iota // SearchCleanedPage, limit 10
	opRankedExact                // SearchRankedPage, limit 10, exact
	opRankedApprox               // SearchRankedPage, limit 10, approx
	opSnippet                    // Search + Stats + snippet.Generate of one result
	numReadKinds
)

var kindNames = [numReadKinds]string{"doc_page", "ranked_exact", "ranked_approx", "snippet"}

// readMix is the read workloads' op mix, in opKind order.
var readMix = [numReadKinds]float64{0.30, 0.40, 0.20, 0.10}

// readOp is one read operation: a kind, a pool query, and (for
// snippets) which result to digest, as a fraction of the result list.
type readOp struct {
	Kind  opKind
	Query int
	Pick  float64
}

// opSource yields one client's deterministic op sequence.
type opSource struct {
	r    *rand.Rand
	zipf *rand.Zipf
}

// newOpSource seeds client's sequence for a run: the same (seed,
// client) always yields the same ops, and clients of one run differ.
func newOpSource(seed int64, client, n int) *opSource {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + 17))
	return &opSource{r: r, zipf: rand.NewZipf(r, zipfS, 1, uint64(n-1))}
}

// rank draws a popularity rank in [0, n).
func (s *opSource) rank() int { return int(s.zipf.Uint64()) }

// pickKind draws an index from a cumulative-share mix.
func pickKind(r *rand.Rand, mix []float64) int {
	x := r.Float64()
	for i, share := range mix {
		x -= share
		if x < 0 {
			return i
		}
	}
	return len(mix) - 1
}

// nextRead draws the next read op.
func (s *opSource) nextRead() readOp {
	return readOp{
		Kind:  opKind(pickKind(s.r, readMix[:])),
		Query: s.rank(),
		Pick:  s.r.Float64(),
	}
}

// readOps materializes the first n read ops of a client's sequence.
func readOps(seed int64, client, poolLen, n int) []readOp {
	src := newOpSource(seed, client, poolLen)
	ops := make([]readOp, n)
	for i := range ops {
		ops[i] = src.nextRead()
	}
	return ops
}

// formatReadOps renders an op list one op per line, the form the
// determinism test compares byte for byte.
func formatReadOps(pool []poolQuery, ops []readOp) string {
	var b strings.Builder
	for _, op := range ops {
		fmt.Fprintf(&b, "%s %q %.6f\n", kindNames[op.Kind], pool[op.Query].Text, op.Pick)
	}
	return b.String()
}
