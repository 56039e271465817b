package engine

import (
	"errors"
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

// Config bounds the engine's caches and selects the execution layout.
// Zero values select defaults; a negative cache capacity disables that
// cache.
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
	// Shards selects the sharded executor with that many index shards
	// (clamped to the corpus's top-level entity count). 0 or 1 keeps
	// the monolithic single-index executor. Results are identical
	// either way; sharding trades one big index for K that build in
	// parallel and answer fan-out queries.
	Shards int
	// AutoCompactThreshold triggers a background compaction of the live
	// write path once that many uncompacted writes (adds + removes) are
	// pending. 0 disables auto-compaction (Compact must be called
	// explicitly). Compaction runs under an epoch swap and never blocks
	// in-flight queries.
	AutoCompactThreshold int
	// MaterializePostings makes a compact (v4) snapshot decode every
	// posting list into the heap at load, the pre-v4 resident behavior:
	// maximum steady-state query speed at the cost of the cold-start
	// and memory wins. Off (the default) decodes blocks lazily as
	// queries touch them.
	MaterializePostings bool
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
	// SLCA cost-planner decisions for compiled (cache-miss) queries,
	// summed across shards for a sharded engine (each shard plans its
	// own leg of a fan-out).
	PlannerIndexedLookup int64 `json:"planner_indexed_lookup"`
	PlannerScanEager     int64 `json:"planner_scan_eager"`
	// Streamed-execution counters: PlannerStreamed is the executor's
	// count of ranked pages that ran the lazy early-terminating
	// pipeline; RankedStreamed/RankedEager split SearchRankedPage's
	// serving-level routing decisions; the Stream* trio tracks the
	// resumable doc-order stream-cursor cache behind SearchStreamPage.
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
	// Shards is the executor's shard count (1 = monolithic index);
	// ShardRebuilds counts shards rebuilt from the tree because their
	// snapshot section was missing or corrupt.
	Shards        int   `json:"shards"`
	ShardRebuilds int64 `json:"shard_rebuilds"`
	// Index residency: IndexBytes is the compact snapshot payload
	// backing the index (0 when fully heap-built), ResidentBlocks the
	// 64-posting blocks decoded into the heap. A freshly mmap-loaded
	// engine reports large IndexBytes and near-zero ResidentBlocks;
	// the gap closing is queries faulting lists in.
	IndexBytes     int64 `json:"index_bytes"`
	ResidentBlocks int64 `json:"resident_blocks"`
	// Live-update counters: lifetime writes and compactions, the state
	// epoch (bumped by every write and compaction), and the pending
	// backlog awaiting compaction. All zero until the first write makes
	// the engine live.
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
// monolithic xseek.Engine, the fan-out shard.Engine, and the live
// update.Engine all satisfy it, and are required to produce identical
// output for the same logical corpus — the engine's caches and the
// layers above never know which one is running.
type executor interface {
	Root() *xmltree.Node
	Schema() *xseek.Schema
	Search(query string) ([]*xseek.Result, error)
	CleanQuery(query string) []string
	RankResults(results []*xseek.Result, query string) []*xseek.RankedResult
	RankPage(results []*xseek.Result, query string, opts xseek.SearchOptions) []*xseek.RankedResult
	PlannerDecisions() (indexedLookup, scanEager int64)
	TotalNodes() int
	DocFreq(term string) int
	// Streamed read paths: a lazy doc-order cursor, the score-bounded
	// ranked page, the result-count estimate the stream planner keys
	// on, and the executor's streamed-decision counter. The ranked page
	// in exact mode is bit-identical to Search + RankPage while skipping
	// provably non-competitive scoring; approximate mode may
	// additionally stop draining and report xseek.StreamTotalUnknown.
	// Executors without bound metadata (legacy snapshots) run the same
	// consumer unpruned, reported via WANDStats.Bounded.
	SearchStream(query string) (xseek.Cursor, error)
	SearchRankedPageWAND(query string, opts xseek.SearchOptions) ([]*xseek.RankedResult, int, xseek.WANDStats, error)
	EstimateResults(query string) int
	StreamedDecisions() int64
}

// executorBox is the engine's current executor with its concrete
// identity alongside. It is swapped atomically exactly once — when the
// first write installs the live update layer — so every read path
// loads one box and sees a consistent (executor, epoch) pair.
type executorBox struct {
	exec executor
	x    *xseek.Engine  // non-nil for the monolithic executor
	sh   *shard.Engine  // non-nil for the sharded executor
	live *update.Engine // non-nil once updates are enabled
	dist DistExecutor   // non-nil for a distributed coordinator
}

// epoch returns the live state version (0 while the corpus is
// immutable). Cache entries are tagged with it, so entries minted
// before a write or compaction self-invalidate.
func (b *executorBox) epoch() uint64 {
	if b.dist != nil {
		return b.dist.Epoch()
	}
	if b.live != nil {
		return b.live.Epoch()
	}
	return 0
}

// xseek returns the current monolithic engine: the wrapped one, or the
// live layer's current base.
func (b *executorBox) xseek() *xseek.Engine {
	if b.live != nil {
		return b.live.BaseXseek()
	}
	return b.x
}

// sharded returns the current sharded engine, if any.
func (b *executorBox) sharded() *shard.Engine {
	if b.live != nil {
		return b.live.BaseSharded()
	}
	return b.sh
}

// Engine is a concurrency-safe serving engine over one corpus.
type Engine struct {
	cfg Config

	liveMu sync.Mutex // serializes the one-time live-executor install
	cur    atomic.Pointer[executorBox]

	compacting atomic.Bool // auto-compaction single-flight guard

	statsMu  sync.Mutex
	stats    *lru // result-root Dewey ID + label → cacheEntry{*feature.Stats}
	queryMu  sync.Mutex
	queries  *lru // normalized query → queryOutcome
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

// NewWithConfig is New with explicit cache bounds and executor layout:
// Config.Shards > 1 builds the fan-out sharded executor, anything else
// the monolithic one.
func NewWithConfig(root *xmltree.Node, cfg Config) *Engine {
	if cfg.Shards > 1 {
		return FromSharded(shard.Build(root, cfg.Shards), cfg)
	}
	return FromXseek(xseek.NewParallel(root), cfg)
}

// FromXseek wraps an already-built monolithic search engine (e.g. one
// whose index was loaded from disk) in the serving layer.
func FromXseek(x *xseek.Engine, cfg Config) *Engine {
	e := newServing(cfg)
	e.cur.Store(&executorBox{exec: x, x: x})
	return e
}

// FromSharded wraps an already-built sharded executor (fresh-built or
// snapshot-loaded) in the serving layer.
func FromSharded(s *shard.Engine, cfg Config) *Engine {
	e := newServing(cfg)
	e.cur.Store(&executorBox{exec: s, sh: s})
	return e
}

// newServing allocates the cache layer shared by all executors.
func newServing(cfg Config) *Engine {
	cfg = cfg.normalized()
	return &Engine{
		cfg:     cfg,
		stats:   newLRU(cfg.StatsCacheSize),
		queries: newLRU(cfg.QueryCacheSize),
		dfs:     newLRU(cfg.DFSCacheSize),
		streams: newLRU(cfg.StreamCursorCacheSize),
	}
}

// box returns the current executor box.
func (e *Engine) box() *executorBox { return e.cur.Load() }

// Root returns the corpus the engine serves (the live tree once
// updates have been applied).
func (e *Engine) Root() *xmltree.Node { return e.box().exec.Root() }

// Schema returns the inferred schema summary.
func (e *Engine) Schema() *xseek.Schema { return e.box().exec.Schema() }

// Index returns the underlying inverted index, or nil for a sharded
// engine (whose postings live in per-shard indexes; see IndexStats and
// Sharded for the aggregate views). For a live engine it is the
// current base index — pending delta postings live beside it until
// compaction folds them in.
func (e *Engine) Index() *index.Index {
	x := e.box().xseek()
	if x == nil {
		return nil
	}
	return x.Index()
}

// Xseek returns the wrapped monolithic search engine, or nil for a
// sharded engine. Callers that only need corpus statistics should use
// TotalNodes/DocFreq, which work for every executor.
func (e *Engine) Xseek() *xseek.Engine { return e.box().xseek() }

// Sharded returns the sharded executor, or nil for a monolithic
// engine.
func (e *Engine) Sharded() *shard.Engine { return e.box().sharded() }

// Live returns the live update layer, or nil while the corpus has
// never been written to.
func (e *Engine) Live() *update.Engine { return e.box().live }

// Epoch returns the live state version; 0 while the corpus is
// immutable.
func (e *Engine) Epoch() uint64 { return e.box().epoch() }

// ShardCount returns the executor's number of index shards (1 for the
// monolithic layout).
func (e *Engine) ShardCount() int {
	if sh := e.box().sharded(); sh != nil {
		return sh.ShardCount()
	}
	return 1
}

// IndexStats returns the corpus's index statistics, aggregated across
// shards — and across base ⊕ delta − tombstones for a live engine (the
// numbers equal a cold index over the current logical corpus).
func (e *Engine) IndexStats() index.Stats {
	box := e.box()
	switch {
	case box.dist != nil:
		return box.dist.IndexStats()
	case box.live != nil:
		return box.live.IndexStats()
	case box.sh != nil:
		return box.sh.IndexStats()
	default:
		return box.x.Index().Stats()
	}
}

// TotalNodes returns the corpus node count.
func (e *Engine) TotalNodes() int { return e.box().exec.TotalNodes() }

// DocFreq returns the number of corpus nodes containing term. With
// TotalNodes it implements xseek.CorpusStats, so serving engines feed
// database selection directly.
func (e *Engine) DocFreq(term string) int { return e.box().exec.DocFreq(term) }

// SelectEngine routes a query to the best-covering corpus among named
// serving engines (sharded or not), or ("", nil) when no corpus
// contains any query keyword. It is xseek's database selection lifted
// to the serving layer.
func SelectEngine(engines map[string]*Engine, query string) (string, *Engine) {
	name := xseek.SelectCorpus(engines, query)
	if name == "" {
		return "", nil
	}
	return name, engines[name]
}

// ensureLive installs the update layer over the current executor on
// first use. The box swap is the only executor transition the engine
// ever performs; it happens under liveMu and is published atomically,
// so concurrent readers either keep the immutable executor (correct:
// no write has committed yet) or see the live one.
func (e *Engine) ensureLive() *update.Engine {
	if live := e.box().live; live != nil {
		return live
	}
	e.liveMu.Lock()
	defer e.liveMu.Unlock()
	box := e.box()
	if box.live != nil {
		return box.live
	}
	var live *update.Engine
	if box.sh != nil {
		live = update.WrapSharded(box.sh)
	} else {
		live = update.Wrap(box.x)
	}
	e.cur.Store(&executorBox{exec: live, live: live})
	return live
}

// AddEntity appends an entity subtree as a new top-level child of the
// live corpus and makes it immediately searchable. The engine takes
// ownership of n. Returns the entity's Dewey ID — the handle
// RemoveEntity accepts.
func (e *Engine) AddEntity(n *xmltree.Node) (dewey.ID, error) {
	if d := e.box().dist; d != nil {
		id, err := d.AddEntity(n)
		if err != nil {
			return nil, err
		}
		e.purgeCaches()
		e.maybeAutoCompactDist(d)
		return id, nil
	}
	live := e.ensureLive()
	id, err := live.AddEntity(n)
	if err != nil {
		return nil, err
	}
	e.purgeCaches()
	e.maybeAutoCompact(live)
	return id, nil
}

// RemoveEntity removes the top-level entity with the given Dewey ID
// from the live corpus.
func (e *Engine) RemoveEntity(id dewey.ID) error {
	if d := e.box().dist; d != nil {
		if err := d.RemoveEntity(id); err != nil {
			return err
		}
		e.purgeCaches()
		e.maybeAutoCompactDist(d)
		return nil
	}
	live := e.ensureLive()
	if err := live.RemoveEntity(id); err != nil {
		return err
	}
	e.purgeCaches()
	e.maybeAutoCompact(live)
	return nil
}

// Compact folds pending writes back into a clean base under an epoch
// swap. In-flight queries are never blocked; the engine's caches are
// flushed afterwards (entries minted mid-compaction self-invalidate
// through their epoch tags).
func (e *Engine) Compact() error {
	if d := e.box().dist; d != nil {
		if err := d.Compact(); err != nil {
			return err
		}
		e.purgeCaches()
		return nil
	}
	live := e.box().live
	if live == nil {
		return nil // nothing was ever written
	}
	if err := live.Compact(); err != nil {
		return err
	}
	e.purgeCaches()
	return nil
}

// maybeAutoCompact schedules a background compaction when the
// pending-write backlog crosses the configured threshold. Single-
// flight: a compaction already in progress absorbs later triggers.
func (e *Engine) maybeAutoCompact(live *update.Engine) {
	if e.cfg.AutoCompactThreshold <= 0 || live.PendingOps() < e.cfg.AutoCompactThreshold {
		return
	}
	if !e.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer e.compacting.Store(false)
		if err := live.Compact(); err == nil {
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
// counters. The executor identity, epoch, and pending backlog are read
// from one atomically loaded state, and cache gauges under the caches'
// own mutexes, so concurrent writes never produce a torn snapshot.
func (e *Engine) Metrics() Metrics {
	box := e.box()
	indexed, scan := box.exec.PlannerDecisions()
	m := Metrics{
		QueryHits: e.queryHits.Load(), QueryMisses: e.queryMisses.Load(),
		QueryEvictions: e.queryEvictions.Load(),
		StatsHits:      e.statsHits.Load(), StatsMisses: e.statsMisses.Load(),
		StatsEvictions: e.statsEvictions.Load(),
		DFSHits:        e.dfsHits.Load(), DFSMisses: e.dfsMisses.Load(),
		DFSEvictions:         e.dfsEvictions.Load(),
		PlannerIndexedLookup: indexed, PlannerScanEager: scan,
		PlannerStreamed: box.exec.StreamedDecisions(),
		RankedStreamed:  e.rankedStreamed.Load(),
		RankedEager:     e.rankedEager.Load(),
		RankedWAND:      e.rankedWAND.Load(),
		WANDPruned:      e.wandPruned.Load(),
		BlocksSkipped:   e.blocksSkipped.Load(),
		StreamHits:      e.streamHits.Load(),
		StreamMisses:    e.streamMisses.Load(),
		Shards:          1,
	}
	if sh := box.sharded(); sh != nil {
		m.Shards = sh.ShardCount()
		m.ShardRebuilds = sh.Rebuilds()
		ms := sh.MemStats()
		m.IndexBytes, m.ResidentBlocks = ms.DataBytes, ms.ResidentBlocks
	} else if x := box.xseek(); x != nil {
		ms := x.Index().MemStats()
		m.IndexBytes, m.ResidentBlocks = ms.DataBytes, ms.ResidentBlocks
	}
	if box.live != nil {
		m.Updates = box.live.Updates()
		m.Compactions = box.live.Compactions()
		m.Epoch = box.live.Epoch()
		m.PendingDelta, m.PendingTombstones = box.live.Pending()
	}
	if box.dist != nil {
		m.Shards = box.dist.LegCount()
		m.DistLegs = box.dist.LegCount()
		m.DistReplicas = box.dist.Replicas()
		m.Updates = box.dist.Updates()
		m.Compactions = box.dist.Compactions()
		m.Epoch = box.dist.Epoch()
		m.PendingDelta = box.dist.PendingOps()
		m.DistRetries, m.DistHedges, m.DistDegraded, m.DistLegErrs,
			m.DistFailovers, m.DistShed = box.dist.DistCounters()
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
	terms := index.TokenizeQuery(query)
	sort.Strings(terms)
	return strings.Join(terms, " ")
}

// queryOutcome is one cached search outcome: either a result slice or
// a deterministic no-match error, tagged with the live epoch it was
// computed under. Caching the error too means repeated miss queries
// are answered without touching the posting lists.
type queryOutcome struct {
	results []*xseek.Result
	err     error
	epoch   uint64
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
	box := e.box()
	epoch := box.epoch()
	key := queryKey(query)
	e.queryMu.Lock()
	v, ok := e.queries.get(key)
	e.queryMu.Unlock()
	if ok {
		out := v.(queryOutcome)
		if out.epoch == epoch {
			e.queryHits.Add(1)
			return out.results, out.err
		}
	}
	e.queryMisses.Add(1)
	rs, err := box.exec.Search(query)
	var noMatch *index.NoMatchError
	if err != nil && !errors.As(err, &noMatch) {
		return rs, err
	}
	// Cache only when no write landed mid-search; a stale insert would
	// still be rejected by the epoch check above, this just avoids it.
	if box.epoch() == epoch {
		e.queryMu.Lock()
		e.queryEvictions.Add(int64(e.queries.put(key, queryOutcome{results: rs, err: err, epoch: epoch})))
		e.queryMu.Unlock()
	}
	return rs, err
}

// SearchCleaned spell-corrects the query against the corpus vocabulary
// and then searches through the cache, returning the corrected
// keywords alongside the results.
func (e *Engine) SearchCleaned(query string) ([]*xseek.Result, []string, error) {
	cleaned := e.box().exec.CleanQuery(query)
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
// results by TF-IDF relevance. Ranking re-scores on every call (it is
// cheap relative to SLCA); only the underlying result set is cached.
// The search and the scoring pass are retried together until they
// observe one stable epoch.
func (e *Engine) SearchRanked(query string) ([]*xseek.RankedResult, error) {
	var ranked []*xseek.RankedResult
	for i := 0; i < rankedAttempts; i++ {
		box := e.box()
		epoch := box.epoch()
		results, err := e.Search(query)
		if err != nil {
			return nil, err
		}
		ranked = box.exec.RankResults(results, query)
		if box.epoch() == epoch {
			break
		}
	}
	return ranked, nil
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
	cleaned := e.box().exec.CleanQuery(query)
	page, err := e.SearchPage(strings.Join(cleaned, " "), opts)
	return page, cleaned, err
}

// SearchRankedPage searches through the cache and returns the options'
// window of the relevance ordering. On a query-cache hit the cached
// result list is re-scored eagerly (windowing over it is nearly free);
// on a miss with a small bounded window over a large estimated result
// set it routes to the executor's streamed pipeline, which never
// materializes the full result list. Both routes produce bit-identical
// pages and exact totals. Like SearchRanked, each attempt is retried
// until it observes one stable epoch.
//
// The streamed route deliberately does not populate the query cache —
// it never computes the full result list, and a partial entry would
// poison doc-order paging. A later Search of the same query warms the
// cache as usual, after which ranked pages go eager.
//
// Routed streamed pages run the score-bounded (block-max WAND)
// consumer, which runs unpruned by itself when bound metadata is
// missing — WANDStats.Bounded reports which happened, and
// feeds the ranked_wand / wand_pruned / blocks_skipped metrics.
// Requesting xseek.AccuracyApprox forces the bounded route regardless
// of cache state: the page is still exact, but the total may come back
// xseek.StreamTotalUnknown.
func (e *Engine) SearchRankedPage(query string, opts xseek.SearchOptions) (*RankedPage, error) {
	var out *RankedPage
	for i := 0; i < rankedAttempts; i++ {
		box := e.box()
		epoch := box.epoch()
		if opts.Accuracy == xseek.AccuracyApprox || e.routeStreamed(box, epoch, query, opts) {
			page, total, st, err := box.exec.SearchRankedPageWAND(query, opts)
			if err != nil {
				return nil, err
			}
			e.rankedStreamed.Add(1)
			if st.Bounded {
				e.rankedWAND.Add(1)
				e.wandPruned.Add(st.Pruned)
				e.blocksSkipped.Add(st.BlocksSkipped)
			}
			lo := opts.Offset
			if lo < 0 {
				lo = 0
			}
			if total >= 0 {
				lo, _ = opts.Window(total)
			}
			out = &RankedPage{Results: page, Total: total, Offset: lo}
		} else {
			results, err := e.Search(query)
			if err != nil {
				return nil, err
			}
			e.rankedEager.Add(1)
			page := box.exec.RankPage(results, query, opts)
			lo, _ := opts.Window(len(results))
			out = &RankedPage{Results: page, Total: len(results), Offset: lo}
		}
		if box.epoch() == epoch {
			break
		}
	}
	return out, nil
}

// SearchCleanedRankedPage is SearchRankedPage over the spell-corrected
// query, returning the corrected keywords alongside the page.
func (e *Engine) SearchCleanedRankedPage(query string, opts xseek.SearchOptions) (*RankedPage, []string, error) {
	cleaned := e.box().exec.CleanQuery(query)
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
	box := e.box()
	epoch := box.epoch()
	key := node.ID.String() + "\x00" + label
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
	s := feature.Extract(node, box.exec.Schema(), label)
	e.statsMu.Lock()
	if prior, ok := e.stats.get(key); ok && prior.(cacheEntry).epoch == epoch {
		s = prior.(cacheEntry).val.(*feature.Stats) // another goroutine raced us; keep one canonical copy
	} else if box.epoch() == epoch {
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

// selectionKey identifies a (results, algorithm, options) combination
// for the DFS cache. Callers pass normalized options so defaulted and
// explicit spellings of the same configuration share one entry.
func selectionKey(results []*xseek.Result, alg core.Algorithm, opts core.Options) string {
	var b strings.Builder
	b.WriteString(string(alg))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(opts.SizeBound))
	b.WriteByte('|')
	b.WriteString(strconv.FormatFloat(opts.Threshold, 'g', -1, 64))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(opts.MaxRounds))
	b.WriteByte('|')
	b.WriteString(strconv.FormatBool(opts.Pad))
	for _, r := range results {
		b.WriteByte('|')
		b.WriteString(r.Node.ID.String())
	}
	return b.String()
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
	epoch := e.box().epoch()
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
	if e.box().epoch() == epoch {
		e.dfsMu.Lock()
		e.dfsEvictions.Add(int64(e.dfs.put(key, cacheEntry{val: dfss, epoch: epoch})))
		e.dfsMu.Unlock()
	}
	return dfss
}
