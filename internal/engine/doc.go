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
//	                          │        │             ├ xseek.Engine  (monolithic)
//	                          │        │             ├ shard.Engine  (K-shard fan-out/merge)
//	                          │        │             └ update.Engine (live writes over either)
//	                          │        └→ feature (cached) → core (pooled) → table
//
// The executor is chosen by Config.Shards — and transparently wrapped
// by the live update layer on the first AddEntity/RemoveEntity — and
// is invisible above this layer: all produce identical results, so the
// caches, the facade, and the servers never branch on the layout. Once
// the corpus is live, every cache entry is tagged with the update
// layer's epoch and self-invalidates across writes and compactions.
// Construction fans index
// building out — over the root's subtrees for the monolithic executor
// (xseek.NewParallel), over per-shard segment groups for the sharded
// one (shard.Build) — and query serving reuses cached search results
// and feature stats, so repeated Compare/Snippet calls over the same
// results never re-extract the same subtree twice.
package engine
