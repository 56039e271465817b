// Package engine is XSACT's concurrent query-serving layer: one
// Engine per corpus owns every piece of per-document derived state —
// the inverted index, the inferred schema, a feature-statistics cache
// keyed by result subtree, a bounded LRU of query → SLCA results (each
// memoizing its relevance ranking once a ranked read asks for it), and
// a bounded LRU of generated DFS sets — and is safe for any number of
// concurrent readers.
//
// The layers above plumb through it instead of recomputing:
//
//	facade (xsact.Document)  ─┐
//	HTTP server (cmd/xsactd) ─┼→ engine.Engine ─→ executor ─→ index / slca
//	                          │        │             │
//	                          │        │             ├ update.Engine   (in process: live writes over one index)
//	                          │        │             └ dist.Coordinator (fan-out/merge over shard legs)
//	                          │        └→ feature (cached) → core (pooled) → table
//
// Every in-process engine is live from construction: its executor is
// the update layer over one index. (FromSharded lays a base out as a
// shard partition's indexes, read as one posting view until the first
// compaction; only the distributed benchmarks and tests use it.) The
// executor never changes after construction and is invisible above
// this layer: the coordinator produces identical results, so the
// caches, the facade, and the servers never branch on it. Every cache
// entry is tagged with the executor's epoch and self-invalidates
// across writes and compactions. Construction fans index building out
// over the root's subtrees (xseek.NewParallel), and query serving
// reuses cached search results and feature stats, so repeated
// Compare/Snippet calls over the same results never re-extract the
// same subtree twice.
package engine
