package engine

import (
	"errors"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dewey"
	"repro/internal/feature"
	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/update"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// Config bounds the engine's caches and sets the auto-compaction
// threshold. Zero values select defaults; a negative cache capacity
// disables that cache.
type Config struct {
	// QueryCacheSize bounds the query → results LRU. Default 256.
	QueryCacheSize int
	// DFSCacheSize bounds the (results, algorithm, options) → DFS-set
	// LRU. Default 128.
	DFSCacheSize int
	// StatsCacheSize bounds the result-root → feature-stats LRU.
	// Default 4096 (stats are small relative to the subtrees they
	// summarize, but diverse traffic must not grow the cache without
	// bound).
	StatsCacheSize int
	// StreamCursorCacheSize bounds the resumable stream-cursor LRU
	// behind SearchStreamPage (each entry holds a live lazy pipeline
	// plus its consumed prefix). Default 32.
	StreamCursorCacheSize int
	// AutoCompactThreshold triggers a background compaction of the live
	// write path once that many uncompacted writes (adds + removes) are
	// pending. 0 disables auto-compaction (Compact must be called
	// explicitly). Compaction runs under an epoch swap and never blocks
	// in-flight queries.
	AutoCompactThreshold int
}

func (c Config) normalized() Config {
	if c.QueryCacheSize == 0 {
		c.QueryCacheSize = 256
	}
	if c.DFSCacheSize == 0 {
		c.DFSCacheSize = 128
	}
	if c.StatsCacheSize == 0 {
		c.StatsCacheSize = 4096
	}
	if c.StreamCursorCacheSize == 0 {
		c.StreamCursorCacheSize = 32
	}
	return c
}

// Metrics is a point-in-time snapshot of the engine's cache, planner,
// and live-update counters. The JSON form is served by xsactd's
// /api/v1/metrics endpoint.
type Metrics struct {
	// Query → results LRU (hits include cached no-match outcomes).
	QueryHits      int64 `json:"query_hits"`
	QueryMisses    int64 `json:"query_misses"`
	QueryEvictions int64 `json:"query_evictions"`
	// Feature-stats LRU (misses = extractions).
	StatsHits      int64 `json:"stats_hits"`
	StatsMisses    int64 `json:"stats_misses"`
	StatsEvictions int64 `json:"stats_evictions"`
	// DFS-set LRU (misses = generations).
	DFSHits      int64 `json:"dfs_hits"`
	DFSMisses    int64 `json:"dfs_misses"`
	DFSEvictions int64 `json:"dfs_evictions"`
	// Cache occupancy gauges, read under the same mutexes that guard
	// the caches so a metrics probe never reports a torn size.
	QueryCacheLen int `json:"query_cache_len"`
	StatsCacheLen int `json:"stats_cache_len"`
	DFSCacheLen   int `json:"dfs_cache_len"`
	// SLCA planner decisions for compiled (cache-miss) queries: the seek
	// discipline (galloping vs linear) of the one streamed SLCA. Every
	// in-process engine compiles a query once over its posting view; a
	// coordinator leaves both at zero.
	PlannerIndexedLookup int64 `json:"planner_indexed_lookup"`
	PlannerScanEager     int64 `json:"planner_scan_eager"`
	// Streamed-execution counters: PlannerStreamed is the executor's
	// count of ranked pages that ran the lazy early-terminating
	// pipeline; RankedStreamed/RankedEager split SearchRankedPage's
	// serving-level routing decisions — RankedEager counts the pages
	// served from the cached ranking of a query-cache outcome (a hit, or
	// a miss that materialized the results); the Stream* trio tracks
	// the resumable doc-order stream-cursor cache behind
	// SearchStreamPage.
	PlannerStreamed int64 `json:"planner_streamed"`
	RankedStreamed  int64 `json:"ranked_streamed"`
	RankedEager     int64 `json:"ranked_eager"`
	StreamHits      int64 `json:"stream_hits"`
	StreamMisses    int64 `json:"stream_misses"`
	StreamCursorLen int   `json:"stream_cursor_len"`
	// Score-bounded (block-max WAND) execution: RankedWAND counts ranked
	// pages that ran with bound metadata active (a subset of
	// RankedStreamed), WANDPruned entities whose exact scoring the bound
	// skipped, and BlocksSkipped posting blocks never touched past the
	// cutoffs.
	RankedWAND    int64 `json:"ranked_wand"`
	WANDPruned    int64 `json:"wand_pruned"`
	BlocksSkipped int64 `json:"blocks_skipped"`
	// Shards is 1 for an in-process engine, which serves one index; a
	// coordinator reports its legs.
	Shards int `json:"shards"`
	// Index residency: IndexBytes is the compact snapshot payload
	// backing the index (0 when fully heap-built), ResidentBlocks the
	// 64-posting blocks decoded into the heap. A freshly mmap-loaded
	// engine reports large IndexBytes and near-zero ResidentBlocks;
	// the gap closing is queries faulting lists in.
	IndexBytes     int64 `json:"index_bytes"`
	ResidentBlocks int64 `json:"resident_blocks"`
	// Live-update counters: lifetime writes and compactions, the state
	// epoch (bumped by every write and compaction), and the pending
	// backlog awaiting compaction. Every in-process engine is live from
	// construction; all are zero until its first write.
	Updates           int64  `json:"updates"`
	Compactions       int64  `json:"compactions"`
	Epoch             uint64 `json:"epoch"`
	PendingDelta      int    `json:"pending_delta"`
	PendingTombstones int    `json:"pending_tombstones"`
	// Distributed-serving counters, all zero for in-process engines:
	// legs the coordinator fans out to, replicas per shard group,
	// transport retries, hedged reads launched, degraded (partial)
	// pages served, leg calls failed after all retries, reads failed
	// over to another replica, and ranked queries shed by admission
	// control.
	DistLegs      int   `json:"dist_legs,omitempty"`
	DistReplicas  int   `json:"dist_replicas,omitempty"`
	DistRetries   int64 `json:"dist_retries,omitempty"`
	DistHedges    int64 `json:"dist_hedges,omitempty"`
	DistDegraded  int64 `json:"dist_degraded,omitempty"`
	DistLegErrs   int64 `json:"dist_leg_errs,omitempty"`
	DistFailovers int64 `json:"dist_failovers,omitempty"`
	DistShed      int64 `json:"dist_shed,omitempty"`
}

// executor is the search substrate the serving layer plumbs onto: the
// live update.Engine every in-process engine runs from construction,
// and a distributed coordinator (DistExecutor). Both are required to
// produce identical output for the same logical corpus — the engine's
// caches and the layers above never know which one is running.
type executor interface {
	Root() *xmltree.Node
	Schema() *xseek.Schema
	CleanQuery(query string) []string
	RankResults(results []*xseek.Result, query string) []*xseek.RankedResult
	PlannerDecisions() (indexedLookup, scanEager int64)
	TotalNodes() int
	DocFreq(term string) int
	// Read paths: a doc-order cursor (drained, it is the search's
	// result list), the score-bounded ranked page, the result-count
	// estimate the stream planner keys on, and the executor's
	// streamed-decision counter. The ranked page in exact mode is
	// bit-identical to the same window of the drained cursor +
	// RankResults while skipping provably non-competitive scoring;
	// approximate mode may additionally stop draining and report
	// xseek.StreamTotalUnknown (the coordinator's fan-out never does).
	// Executors without bound metadata (legacy snapshots) run the same
	// consumer unpruned, reported via WANDStats.Bounded.
	SearchStream(query string) (xseek.Cursor, error)
	SearchRankedPageWAND(query string, opts xseek.SearchOptions) ([]*xseek.RankedResult, int, xseek.WANDStats, error)
	EstimateResults(query string) int
	StreamedDecisions() int64
	// Write side: the state epoch (bumped by every write and
	// compaction; cache entries are tagged with it, so entries minted
	// before a write self-invalidate), the writes themselves, the
	// pending backlog and lifetime tallies, and index statistics over
	// the current logical corpus.
	Epoch() uint64
	AddEntity(n *xmltree.Node) (dewey.ID, error)
	RemoveEntity(id dewey.ID) error
	Compact() error
	PendingOps() int
	Updates() int64
	Compactions() int64
	IndexStats() index.Stats
}

// Engine is a concurrency-safe serving engine over one corpus.
type Engine struct {
	cfg Config

	// exec is fixed at construction: reads and writes of every kind go
	// through it.
	exec executor

	compacting atomic.Bool // auto-compaction single-flight guard

	// embedded marks a corpus read out of a snapshot that carried it
	// (see MarkCorpusEmbedded).
	embedded atomic.Bool

	statsMu  sync.Mutex
	stats    *lru // result-root Dewey ID + label → cacheEntry{*feature.Stats}
	queryMu  sync.Mutex
	queries  *lru // normalized query → *queryOutcome
	dfsMu    sync.Mutex
	dfs      *lru // selection key → cacheEntry{[]*core.DFS}
	streamMu sync.Mutex
	streams  *lru // normalized query → *streamCursor

	queryHits, queryMisses   atomic.Int64
	statsHits, statsMisses   atomic.Int64
	dfsHits, dfsMisses       atomic.Int64
	streamHits, streamMisses atomic.Int64

	rankedStreamed, rankedEager atomic.Int64

	rankedWAND, wandPruned, blocksSkipped atomic.Int64

	queryEvictions, statsEvictions, dfsEvictions atomic.Int64
}

// New builds an engine over root with default cache bounds, using the
// parallel index + schema construction path.
func New(root *xmltree.Node) *Engine {
	return NewWithConfig(root, Config{})
}

// NewWithConfig is New with explicit cache bounds.
func NewWithConfig(root *xmltree.Node, cfg Config) *Engine {
	return FromXseek(xseek.NewParallel(root), cfg)
}

// FromXseek serves an already-built monolithic search engine (e.g. one
// whose index was loaded from disk) as the base of a live engine.
func FromXseek(x *xseek.Engine, cfg Config) *Engine {
	return newServing(update.Wrap(x), cfg)
}

// FromSharded serves a sharded engine's spine and shard indexes as the
// multi-part base of a live engine, read as one posting view until the
// first compaction folds it into one index. Nothing in serving builds
// one: it is the in-process reference a distributed cluster is
// measured against.
func FromSharded(s *shard.Engine, cfg Config) *Engine {
	parts := append([]*index.Index{s.SpineIndex()}, s.ShardIndexes()...)
	return newServing(update.WrapParts(s.Root(), s.Schema(), parts), cfg)
}

// MarkCorpusEmbedded records that the engine's corpus was read out of
// a snapshot that carried the tree itself. No generator reproduces
// such a corpus — it holds accepted writes — so every later snapshot
// of the engine must carry the tree too, written to or not.
func (e *Engine) MarkCorpusEmbedded() { e.embedded.Store(true) }

// CorpusEmbedded reports whether MarkCorpusEmbedded was called.
func (e *Engine) CorpusEmbedded() bool { return e.embedded.Load() }

// newServing allocates the cache layer over exec.
func newServing(exec executor, cfg Config) *Engine {
	cfg = cfg.normalized()
	return &Engine{
		cfg:     cfg,
		exec:    exec,
		stats:   newLRU(cfg.StatsCacheSize),
		queries: newLRU(cfg.QueryCacheSize),
		dfs:     newLRU(cfg.DFSCacheSize),
		streams: newLRU(cfg.StreamCursorCacheSize),
	}
}

// Root returns the corpus the engine serves (the live tree once
// updates have been applied).
func (e *Engine) Root() *xmltree.Node { return e.exec.Root() }

// Schema returns the inferred schema summary.
func (e *Engine) Schema() *xseek.Schema { return e.exec.Schema() }

// Index returns the live layer's current base index, or nil for a
// base still held as parts (FromSharded; see IndexStats for the
// aggregate view) and for a coordinator. Pending delta postings live
// beside it until compaction folds them in.
func (e *Engine) Index() *index.Index {
	x := e.Xseek()
	if x == nil {
		return nil
	}
	return x.Index()
}

// Xseek returns the live layer's current monolithic base, or nil for a
// base still held as parts and for a coordinator. Compaction replaces
// the base, so do not retain the result. Callers that only need corpus
// statistics should use TotalNodes/DocFreq, which work for every
// executor.
func (e *Engine) Xseek() *xseek.Engine {
	if live := e.Live(); live != nil {
		return live.BaseXseek()
	}
	return nil
}

// Live returns the live update layer, or nil for a distributed
// coordinator.
func (e *Engine) Live() *update.Engine {
	live, _ := e.exec.(*update.Engine)
	return live
}

// Epoch returns the state version; 0 until the first write.
func (e *Engine) Epoch() uint64 { return e.exec.Epoch() }

// IndexStats returns the corpus's index statistics over base ⊕ delta −
// tombstones (the numbers equal a cold index over the current logical
// corpus).
func (e *Engine) IndexStats() index.Stats { return e.exec.IndexStats() }

// TotalNodes returns the corpus node count.
func (e *Engine) TotalNodes() int { return e.exec.TotalNodes() }

// DocFreq returns the number of corpus nodes containing term. With
// TotalNodes it implements xseek.CorpusStats, so serving engines feed
// database selection directly.
func (e *Engine) DocFreq(term string) int { return e.exec.DocFreq(term) }

// SelectEngine routes a query to the best-covering corpus among named
// serving engines, or ("", nil) when no corpus
// contains any query keyword. It is xseek's database selection lifted
// to the serving layer.
func SelectEngine(engines map[string]*Engine, query string) (string, *Engine) {
	name := xseek.SelectCorpus(engines, query)
	if name == "" {
		return "", nil
	}
	return name, engines[name]
}

// AddEntity appends an entity subtree as a new top-level child of the
// live corpus and makes it immediately searchable. The engine takes
// ownership of n. Returns the entity's Dewey ID — the handle
// RemoveEntity accepts.
func (e *Engine) AddEntity(n *xmltree.Node) (dewey.ID, error) {
	id, err := e.exec.AddEntity(n)
	if err != nil {
		return nil, err
	}
	e.purgeCaches()
	e.maybeAutoCompact()
	return id, nil
}

// RemoveEntity removes the top-level entity with the given Dewey ID
// from the live corpus.
func (e *Engine) RemoveEntity(id dewey.ID) error {
	if err := e.exec.RemoveEntity(id); err != nil {
		return err
	}
	e.purgeCaches()
	e.maybeAutoCompact()
	return nil
}

// Compact folds pending writes back into a clean base under an epoch
// swap. In-flight queries are never blocked; the engine's caches are
// flushed afterwards (entries minted mid-compaction self-invalidate
// through their epoch tags).
func (e *Engine) Compact() error {
	if err := e.exec.Compact(); err != nil {
		return err
	}
	e.purgeCaches()
	return nil
}

// maybeAutoCompact schedules a background compaction when the
// pending-write backlog crosses the configured threshold. Single-
// flight: a compaction already in progress absorbs later triggers.
func (e *Engine) maybeAutoCompact() {
	if e.cfg.AutoCompactThreshold <= 0 || e.exec.PendingOps() < e.cfg.AutoCompactThreshold {
		return
	}
	if !e.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer e.compacting.Store(false)
		if err := e.exec.Compact(); err == nil {
			e.purgeCaches()
		}
	}()
}

// purgeCaches drops every cached query outcome, feature-stat, and DFS
// set. Epoch tags already keep stale entries from being served; the
// purge reclaims their memory eagerly after a write.
func (e *Engine) purgeCaches() {
	e.queryMu.Lock()
	e.queries.purge()
	e.queryMu.Unlock()
	e.statsMu.Lock()
	e.stats.purge()
	e.statsMu.Unlock()
	e.dfsMu.Lock()
	e.dfs.purge()
	e.dfsMu.Unlock()
	e.streamMu.Lock()
	e.streams.purge()
	e.streamMu.Unlock()
}

// Metrics returns a snapshot of the cache, planner, and live-update
// counters. The base, epoch, and pending backlog are each read from
// the executor's atomically published state, and cache gauges under
// the caches' own mutexes, so concurrent writes never produce a torn
// value.
func (e *Engine) Metrics() Metrics {
	indexed, scan := e.exec.PlannerDecisions()
	m := Metrics{
		QueryHits: e.queryHits.Load(), QueryMisses: e.queryMisses.Load(),
		QueryEvictions: e.queryEvictions.Load(),
		StatsHits:      e.statsHits.Load(), StatsMisses: e.statsMisses.Load(),
		StatsEvictions: e.statsEvictions.Load(),
		DFSHits:        e.dfsHits.Load(), DFSMisses: e.dfsMisses.Load(),
		DFSEvictions:         e.dfsEvictions.Load(),
		PlannerIndexedLookup: indexed, PlannerScanEager: scan,
		PlannerStreamed: e.exec.StreamedDecisions(),
		RankedStreamed:  e.rankedStreamed.Load(),
		RankedEager:     e.rankedEager.Load(),
		RankedWAND:      e.rankedWAND.Load(),
		WANDPruned:      e.wandPruned.Load(),
		BlocksSkipped:   e.blocksSkipped.Load(),
		StreamHits:      e.streamHits.Load(),
		StreamMisses:    e.streamMisses.Load(),
		Shards:          1,
		Updates:         e.exec.Updates(),
		Compactions:     e.exec.Compactions(),
		Epoch:           e.exec.Epoch(),
		PendingDelta:    e.exec.PendingOps(),
	}
	if live := e.Live(); live != nil {
		m.PendingDelta, m.PendingTombstones = live.Pending()
		if x := live.BaseXseek(); x != nil {
			ms := x.Index().MemStats()
			m.IndexBytes, m.ResidentBlocks = ms.DataBytes, ms.ResidentBlocks
		}
	}
	if d := e.Dist(); d != nil {
		m.Shards = d.LegCount()
		m.DistLegs = d.LegCount()
		m.DistReplicas = d.Replicas()
		m.DistRetries, m.DistHedges, m.DistDegraded, m.DistLegErrs,
			m.DistFailovers, m.DistShed = d.DistCounters()
	}
	e.queryMu.Lock()
	m.QueryCacheLen = e.queries.len()
	e.queryMu.Unlock()
	e.statsMu.Lock()
	m.StatsCacheLen = e.stats.len()
	e.statsMu.Unlock()
	e.dfsMu.Lock()
	m.DFSCacheLen = e.dfs.len()
	e.dfsMu.Unlock()
	e.streamMu.Lock()
	m.StreamCursorLen = e.streams.len()
	e.streamMu.Unlock()
	return m
}

// queryKey normalizes a query to its sorted token set so "Tomtom  GPS"
// and "gps tomtom" share one cache slot: SLCA treats a query as a set
// of keywords, so results are independent of keyword order.
func queryKey(query string) string {
	key, _ := queryKeys(query)
	return key
}

// queryKeys returns queryKey alongside the query's term sequence in
// query order. Ranking needs the latter: a result's score sums its
// terms' weights in query order, and with three or more terms two
// orders of one keyword set can round to different last bits.
func queryKeys(query string) (key, terms string) {
	toks := index.TokenizeQuery(query)
	terms = strings.Join(toks, " ")
	sort.Strings(toks)
	return strings.Join(toks, " "), terms
}

// queryOutcome is one cached search outcome: either a result slice or
// a deterministic no-match error, tagged with the live epoch it was
// computed under. Caching the error too means repeated miss queries
// are answered without touching the posting lists.
//
// ranking memoizes the results' relevance ordering, filled by the
// first ranked read of the outcome. It lives and dies with the
// epoch-tagged outcome; scores depend on the corpus's document
// frequencies and node count, so an outcome kept across a write would
// have to drop it.
type queryOutcome struct {
	results []*xseek.Result
	err     error
	epoch   uint64
	ranking atomic.Pointer[ranking]
}

// ranking is a memoized relevance ordering of a cached result list,
// with the query term sequence its scores were summed in.
type ranking struct {
	terms  string
	ranked []*xseek.RankedResult
}

// cacheEntry tags an arbitrary cached value (feature stats, DFS sets)
// with its epoch.
type cacheEntry struct {
	val   any
	epoch uint64
}

// Search runs a keyword query through the query LRU: a hit returns the
// cached outcome (the result slice is shared and immutable — callers
// must not modify it), a miss delegates to the executor. Successful
// searches and no-match outcomes (index.NoMatchError, a pure function
// of corpus and keywords) are cached; other errors are not. Entries
// carry the epoch they were computed under, so a cached outcome from
// before a write or compaction is never served afterwards — even if a
// racing reader re-inserts it after the post-write purge.
func (e *Engine) Search(query string) ([]*xseek.Result, error) {
	out := e.search(e.exec.Epoch(), queryKey(query), query)
	return out.results, out.err
}

// search is Search returning the outcome itself, under a caller-pinned
// epoch.
func (e *Engine) search(epoch uint64, key, query string) *queryOutcome {
	if out := e.cached(key, epoch); out != nil {
		e.queryHits.Add(1)
		return out
	}
	return e.execSearch(epoch, key, query)
}

// cached returns the query LRU's outcome for key when it was computed
// under epoch, else nil. It does not count a hit or a miss.
func (e *Engine) cached(key string, epoch uint64) *queryOutcome {
	e.queryMu.Lock()
	v, ok := e.queries.get(key)
	e.queryMu.Unlock()
	if ok {
		if out := v.(*queryOutcome); out.epoch == epoch {
			return out
		}
	}
	return nil
}

// execSearch is a query-cache miss: it drains the executor's cursor
// and caches the outcome when it is cacheable.
func (e *Engine) execSearch(epoch uint64, key, query string) *queryOutcome {
	e.queryMisses.Add(1)
	var rs []*xseek.Result
	c, err := e.exec.SearchStream(query)
	if err == nil {
		rs, err = xseek.Drain(c)
	}
	out := &queryOutcome{results: rs, err: err, epoch: epoch}
	var noMatch *index.NoMatchError
	if err != nil && !errors.As(err, &noMatch) {
		return out
	}
	// Cache only when no write landed mid-search; a stale insert would
	// still be rejected by the epoch check in cached, this just avoids it.
	if e.exec.Epoch() == epoch {
		e.queryMu.Lock()
		e.queryEvictions.Add(int64(e.queries.put(key, out)))
		e.queryMu.Unlock()
	}
	return out
}

// rankingOf returns the relevance ordering of out's results for a
// query whose term sequence is terms. The outcome's memo serves it when
// it was scored for that sequence; otherwise the executor ranks the
// results, and the ranking becomes the memo when the memo is still
// empty and no write landed since epoch (the executor scores against
// its current corpus statistics). A nil ranking is a failed
// distributed scoring fan-out: it is returned, never memoized. The
// returned slice is shared and read-only.
func (e *Engine) rankingOf(epoch uint64, out *queryOutcome, query, terms string) []*xseek.RankedResult {
	if r := out.ranking.Load(); r != nil && r.terms == terms {
		return r.ranked
	}
	ranked := e.exec.RankResults(out.results, query)
	if ranked == nil || e.exec.Epoch() != epoch {
		return ranked
	}
	if !out.ranking.CompareAndSwap(nil, &ranking{terms: terms, ranked: ranked}) {
		// A racing reader memoized first; serve its copy if it is for the
		// same term order, so every reader of one memo sees one slice.
		if r := out.ranking.Load(); r.terms == terms {
			return r.ranked
		}
	}
	return ranked
}

// SearchCleaned spell-corrects the query against the corpus vocabulary
// and then searches through the cache, returning the corrected
// keywords alongside the results.
func (e *Engine) SearchCleaned(query string) ([]*xseek.Result, []string, error) {
	cleaned := e.exec.CleanQuery(query)
	rs, err := e.Search(strings.Join(cleaned, " "))
	return rs, cleaned, err
}

// rankedAttempts bounds the retry loop of the ranked read paths: a
// write landing between the search and the scoring pass would mix two
// epochs' views, so the whole read is retried while the epoch is
// moving. Under a sustained write storm the last attempt's page is
// served as a best-effort answer (well-formed, possibly spanning two
// adjacent epochs).
const rankedAttempts = 4

// SearchRanked searches through the cache and orders the cached
// results by TF-IDF relevance. The ordering is computed once per cached
// outcome and query term order, then served from the outcome's memo;
// the caller gets its own copy of the slice (the entries themselves are
// shared and read-only). The search and the scoring pass are retried
// together until they observe one stable epoch.
func (e *Engine) SearchRanked(query string) ([]*xseek.RankedResult, error) {
	key, terms := queryKeys(query)
	var ranked []*xseek.RankedResult
	for i := 0; i < rankedAttempts; i++ {
		epoch := e.exec.Epoch()
		out := e.search(epoch, key, query)
		if out.err != nil {
			return nil, out.err
		}
		ranked = e.rankingOf(epoch, out, query, terms)
		if e.exec.Epoch() == epoch {
			break
		}
	}
	return slices.Clone(ranked), nil
}

// Page is one window of a search's full result list. The engine caches
// the full outcome once (Search) and serves any number of windows over
// it, so pagination costs a slice header, not a re-search.
type Page struct {
	// Results is the window's result slice (shared, read-only).
	Results []*xseek.Result
	// Total is the full result count, for "x–y of N" displays.
	Total int
	// Offset is the window's clamped start position within the full
	// list; Results[i] is overall result Offset+i.
	Offset int
}

// RankedPage is Page for relevance-ordered results.
type RankedPage struct {
	Results []*xseek.RankedResult
	Total   int
	Offset  int
}

// SearchPage searches through the cache and returns the options'
// window of the document-ordered result list.
func (e *Engine) SearchPage(query string, opts xseek.SearchOptions) (*Page, error) {
	results, err := e.Search(query)
	if err != nil {
		return nil, err
	}
	lo, hi := opts.Window(len(results))
	// Full slice expression: the backing array is the cached result
	// list, so cap the window to keep a caller's append from writing
	// into the query cache.
	return &Page{Results: results[lo:hi:hi], Total: len(results), Offset: lo}, nil
}

// SearchCleanedPage is SearchPage over the spell-corrected query,
// returning the corrected keywords alongside the page.
func (e *Engine) SearchCleanedPage(query string, opts xseek.SearchOptions) (*Page, []string, error) {
	cleaned := e.exec.CleanQuery(query)
	page, err := e.SearchPage(strings.Join(cleaned, " "), opts)
	return page, cleaned, err
}

// SearchRankedPage searches through the cache and returns the options'
// window of the relevance ordering. On a query-cache hit the page is a
// window of the cached outcome's ranking, computed by the first ranked
// read of that outcome and memoized (see SearchRanked), so later pages
// cost a slice header — whatever the accuracy asked for, since the
// memoized page and total are exact. On a miss, a small bounded window
// over a large estimated result set (or any xseek.AccuracyApprox
// request) runs the executor's streamed pipeline, which never
// materializes the full result list; any other miss searches through
// the cache and windows the fresh outcome's ranking. Exact pages are
// bit-identical and totals exact on every route. Like SearchRanked,
// each attempt is retried until it observes one stable epoch. The
// page's entries are shared and read-only.
//
// The streamed route deliberately does not populate the query cache —
// it never computes the full result list, and a partial entry would
// poison doc-order paging. A later Search of the same query warms the
// cache as usual, after which ranked pages come from its ranking.
//
// Routed streamed pages run the score-bounded (block-max WAND)
// consumer, which runs unpruned by itself when bound metadata is
// missing — WANDStats.Bounded reports which happened, and feeds the
// ranked_wand / wand_pruned / blocks_skipped metrics. An approximate
// streamed page is still exact, but on any in-process engine its
// total may come back xseek.StreamTotalUnknown; only a coordinator's
// fan-out always reports the exact total.
func (e *Engine) SearchRankedPage(query string, opts xseek.SearchOptions) (*RankedPage, error) {
	key, terms := queryKeys(query)
	var page *RankedPage
	for i := 0; i < rankedAttempts; i++ {
		epoch := e.exec.Epoch()
		var err error
		if page, err = e.rankedPage(epoch, key, terms, query, opts); err != nil {
			return nil, err
		}
		if e.exec.Epoch() == epoch {
			break
		}
	}
	return page, nil
}

// rankedPage is one SearchRankedPage attempt under a pinned epoch, with
// one query-cache lookup.
func (e *Engine) rankedPage(epoch uint64, key, terms, query string, opts xseek.SearchOptions) (*RankedPage, error) {
	out := e.cached(key, epoch)
	switch {
	case out != nil:
		e.queryHits.Add(1)
	case opts.Accuracy == xseek.AccuracyApprox || e.routeStreamed(query, opts):
		return e.streamedPage(query, opts)
	default:
		out = e.execSearch(epoch, key, query)
	}
	if out.err != nil {
		return nil, out.err
	}
	e.rankedEager.Add(1)
	ranked := e.rankingOf(epoch, out, query, terms)
	lo, hi := opts.Window(len(out.results))
	if ranked != nil {
		// Full slice expression: cap the window so a caller's append
		// cannot write into the memoized ranking.
		ranked = ranked[lo:hi:hi]
	}
	return &RankedPage{Results: ranked, Total: len(out.results), Offset: lo}, nil
}

// SearchCleanedRankedPage is SearchRankedPage over the spell-corrected
// query, returning the corrected keywords alongside the page.
func (e *Engine) SearchCleanedRankedPage(query string, opts xseek.SearchOptions) (*RankedPage, []string, error) {
	cleaned := e.exec.CleanQuery(query)
	page, err := e.SearchRankedPage(strings.Join(cleaned, " "), opts)
	return page, cleaned, err
}

// Stats returns the feature statistics of the result subtree rooted at
// node, computing them on first use and serving every later request
// for the same subtree from a bounded LRU. Stats are immutable after
// construction, so the cached pointer is shared freely; entries are
// epoch-tagged because the schema they were extracted under changes
// with live writes.
func (e *Engine) Stats(node *xmltree.Node, label string) *feature.Stats {
	epoch := e.exec.Epoch()
	key := statsKey(node, label)
	e.statsMu.Lock()
	v, ok := e.stats.get(key)
	e.statsMu.Unlock()
	if ok {
		if ent := v.(cacheEntry); ent.epoch == epoch {
			e.statsHits.Add(1)
			return ent.val.(*feature.Stats)
		}
	}
	e.statsMisses.Add(1)
	s := feature.Extract(node, e.exec.Schema(), label)
	e.statsMu.Lock()
	if prior, ok := e.stats.get(key); ok && prior.(cacheEntry).epoch == epoch {
		s = prior.(cacheEntry).val.(*feature.Stats) // another goroutine raced us; keep one canonical copy
	} else if e.exec.Epoch() == epoch {
		e.statsEvictions.Add(int64(e.stats.put(key, cacheEntry{val: s, epoch: epoch})))
	}
	e.statsMu.Unlock()
	return s
}

// StatsForResults extracts (or recalls) the feature statistics of each
// result, fanning cold extractions out over a worker pool.
func (e *Engine) StatsForResults(results []*xseek.Result) []*feature.Stats {
	out := make([]*feature.Stats, len(results))
	core.ForEachParallel(len(results), 0, func(i int) {
		out[i] = e.Stats(results[i].Node, results[i].Label)
	})
	return out
}

// statsKey identifies a result subtree and its label for the stats
// cache: the Dewey ID, a NUL, the label, built in one buffer.
func statsKey(node *xmltree.Node, label string) string {
	var buf [64]byte
	b := append(node.ID.AppendTo(buf[:0]), 0)
	return string(append(b, label...))
}

// selectionKey identifies a (results, algorithm, options) combination
// for the DFS cache, built in one buffer. Callers pass normalized
// options so defaulted and explicit spellings of the same configuration
// share one entry.
func selectionKey(results []*xseek.Result, alg core.Algorithm, opts core.Options) string {
	var buf [256]byte
	b := append(buf[:0], alg...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(opts.SizeBound), 10)
	b = append(b, '|')
	b = strconv.AppendFloat(b, opts.Threshold, 'g', -1, 64)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(opts.MaxRounds), 10)
	b = append(b, '|')
	b = strconv.AppendBool(b, opts.Pad)
	for _, r := range results {
		b = append(b, '|')
		b = r.Node.ID.AppendTo(b)
	}
	return string(b)
}

// Generate produces the Differentiation Feature Sets for a set of
// results: feature stats come from the cache (cold ones extracted in
// parallel), DFS generation runs its per-result phases on a worker
// pool, and the finished DFS set is memoized in a bounded LRU so a
// repeated comparison of the same results is served without
// re-optimization. The returned slice and its DFSs are shared and must
// be treated as read-only. Unknown algorithms return nil, matching
// core.Generate.
func (e *Engine) Generate(alg core.Algorithm, results []*xseek.Result, opts core.Options) []*core.DFS {
	// Key on the canonical options (the generators normalize anyway) so
	// e.g. SizeBound 0 and SizeBound 10 share one cache entry.
	opts = opts.Normalized()
	epoch := e.exec.Epoch()
	key := selectionKey(results, alg, opts)
	e.dfsMu.Lock()
	v, ok := e.dfs.get(key)
	e.dfsMu.Unlock()
	if ok {
		if ent := v.(cacheEntry); ent.epoch == epoch {
			e.dfsHits.Add(1)
			return ent.val.([]*core.DFS)
		}
	}
	e.dfsMisses.Add(1)
	stats := e.StatsForResults(results)
	dfss := core.GenerateParallel(alg, stats, opts)
	if dfss == nil {
		return nil
	}
	if e.exec.Epoch() == epoch {
		e.dfsMu.Lock()
		e.dfsEvictions.Add(int64(e.dfs.put(key, cacheEntry{val: dfss, epoch: epoch})))
		e.dfsMu.Unlock()
	}
	return dfss
}
