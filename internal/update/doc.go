// Package update is the live write path of the serving stack: it lets
// callers add and remove top-level entities on a built corpus without a
// full reparse or index rebuild, while readers keep getting answers
// that are indistinguishable from a cold build of the current logical
// corpus.
//
// The design separates a mutable write side from an immutable read
// side, LSM-style:
//
//   - The base is a finished index — one xseek.Engine, or disjoint
//     part indexes (a partition's spine and shards, WrapParts) read
//     as one — and is never modified in place.
//   - Added entities are appended after the corpus's last top-level
//     child (fresh Dewey ordinals, so every existing posting stays
//     valid) and indexed into a small delta index.
//   - Removed entities go into a tombstone set of top-level Dewey IDs.
//   - Every read runs against the composition base ⊕ delta − tombstones
//     at the posting level: per query term, the base lists (one per
//     base part) are merged with the delta list and filtered through
//     the tombstones before SLCA computation, so deletions can both
//     remove results and surface the new, shallower SLCAs the
//     monolithic semantics demand.
//   - The package keeps no query pipeline of its own. Each state is an
//     xseek.Postings view of that composition — lazy merged iterators
//     for the SLCA stage, materialised lists for scoring, composed
//     block-max bounds, exact frequencies — and xseek.Reader runs the
//     one pipeline the monolithic engine also runs over it.
//   - Compaction folds the pending writes back into a clean one-index
//     base — cheaply merging delta posting lists when only adds are
//     pending over one index, or rebuilding from the pruned,
//     renumbered tree otherwise.
//
// All reads are lock-free: the entire mutable surface lives in one
// immutable state value behind an atomic pointer, and every mutation
// (including compaction) installs a fresh state with a bumped epoch.
// In-flight queries keep the state they started with, so compaction
// never blocks a reader; the serving layer (internal/engine) watches
// the epoch to invalidate its caches.
//
// Corpus statistics (node count, per-term document frequencies, the
// schema summary) are maintained exactly — not approximately — across
// every mutation, so TF-IDF scores, planner decisions, spell
// correction, and entity inference all match a from-scratch build of
// the same logical corpus bit for bit. The schema is recomposed from
// cached per-subtree evidence (xseek.CollectEvidence/ComposeSchema)
// instead of re-walking the corpus.
package update
