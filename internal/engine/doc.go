// Package engine is XSACT's concurrent query-serving layer: one
// Engine per corpus owns every piece of per-document derived state —
// the inverted index (or K shard indexes), the inferred schema, a
// feature-statistics cache keyed by result subtree, a bounded LRU of
// query → SLCA results (each memoizing its relevance ranking once a
// ranked read asks for it), and a bounded LRU of generated DFS sets — and
// is safe for any number of concurrent readers.
//
// The layers above plumb through it instead of recomputing:
//
//	facade (xsact.Document)  ─┐
//	HTTP server (cmd/xsactd) ─┼→ engine.Engine ─→ executor ─→ index / slca
//	                          │        │             │
//	                          │        │             ├ update.Engine   (in process: live writes over
//	                          │        │             │                  one index or K shard indexes)
//	                          │        │             └ dist.Coordinator (fan-out/merge over shard legs)
//	                          │        └→ feature (cached) → core (pooled) → table
//
// Every in-process engine is live from construction: its executor is
// the update layer over a base that Config.Shards lays out as one
// index or K, read as one posting view either way. The executor never
// changes after construction and is invisible above this layer: both
// kinds produce identical results, so the caches, the facade, and the
// servers never branch on the layout. Every cache entry is tagged with
// the executor's epoch and self-invalidates across writes and
// compactions. Construction fans index building out — over the root's
// subtrees for one index (xseek.NewParallel), over per-shard segment
// groups for K (shard.Build) — and query serving reuses cached search
// results and feature stats, so repeated Compare/Snippet calls over
// the same results never re-extract the same subtree twice.
package engine
