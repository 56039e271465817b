// Package shard scales one corpus across K index shards: the document
// is partitioned at top-level entity boundaries, each shard owns an
// inverted index over its contiguous run of entity subtrees, and
// queries fan out per shard and merge — with results provably
// identical to a single monolithic index over the same corpus.
//
// # Partition model
//
// Plan splits the tree into segments and a spine:
//
//   - a segment is a subtree rooted at a topmost entity (an inferred
//     *-node with no entity proper ancestor), or a maximal entity-free
//     subtree hanging off the spine. Segments are self-contained: no
//     SLCA inside a segment can have a witness outside it.
//   - the spine is the small set of remaining nodes — the document
//     root and any wrapper elements above the topmost entities. Spine
//     nodes are the only nodes whose subtrees span segment (and hence
//     shard) boundaries.
//
// Segments are chunked into K contiguous, node-count-balanced groups;
// each group's subtrees are indexed into one shard (index.BuildForest),
// and the spine nodes' own tokens go into a separate tiny spine index
// (index.BuildNodes). The shard node sets are disjoint and their union
// is the document, so per-term posting lists concatenate to exactly
// the monolithic index's lists.
//
// # Query execution
//
// Search fans the xseek stage pipeline (compile → plan → SLCA →
// entity-map) out per shard. Because a segment subtree lies entirely
// within one shard, a node inside a segment is a global SLCA if and
// only if it is a shard-local SLCA of that shard — so the per-shard
// SLCA sets are unioned after discarding spine-node hits. Spine nodes
// need global knowledge and get a separate fix-up: each spine node is
// accepted (deepest first) when every keyword has a witness somewhere
// under it and no already-accepted SLCA lies below it. The merged,
// document-ordered result list is byte-identical to the monolithic
// engine's.
//
// Ranking reuses the whole-corpus constants: document frequencies are
// aggregated across shards at build time, so per-shard TF-IDF scores
// equal monolithic scores bit for bit. SearchRankedPageWAND runs one
// exact score-bounded leg per shard and merges the per-shard top lists
// and the spine bucket with a K-way heap — top-k never materializes
// the full cross-shard ranking. Legs never stop early, even for an
// approximate request: a shard's block-max bounds cannot bound an
// entity whose subtree the partition split across shards, so the
// spine fix-up needs every leg drained.
//
// # Laziness and repair
//
// Shards built from snapshot sources (package persist) materialize on
// first use; a shard whose snapshot section is corrupt is rebuilt from
// its own segment subtrees only, leaving the other shards' lazy loads
// untouched.
package shard
