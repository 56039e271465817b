// Package dist turns the sharded fan-out/merge seam into a network
// boundary: xsactd -shard-server processes each serve one shard group
// over a versioned JSON wire API, and a Coordinator fans queries out
// over HTTP, aggregates global document frequencies, circulates the
// WAND threshold as per-leg score floors, and performs the SLCA spine
// fix-up and K-way ranked merge through the exact same
// shard.Fanout code the in-process engine runs — so distributed
// results are bit-identical (Float64bits scores, tie order, paging
// envelopes) to the in-process sharded engine.
//
// # Topology
//
// Every process replicates the document tree (it is the cheap part —
// the indexes dominate memory); each shard server builds and serves
// only its own group's inverted index. The coordinator holds the
// spine index (root + wrapper nodes, invariant under writes) and the
// aggregated ranking constants. Because ranking ships as integers
// (document frequencies and node counts) and both sides derive IDF
// with the same formula, every score is computed from identical
// inputs in identical order on either side of the wire.
//
// # Writes
//
// Writes route by entity ordinal under the epoch protocol: the
// coordinator serializes writers, computes the statistics delta
// locally, broadcasts one WriteOp (fragment + post-write ranking) to
// every leg, and publishes its new state only after every leg has
// acknowledged. Legs reject ops targeting a different epoch with 409,
// and queries carry the coordinator's epoch so a page is never
// assembled from mixed states. Removing a spine-rooted top-level
// element is rejected: the spine is the one structure both sides
// treat as write-invariant between compactions.
//
// The coordinator and every leg move their document replica through
// update.Doc, the type the in-process engine writes through: the
// copy-on-write root, the top-level ordinals, the schema folded from
// per-child evidence (recomposed from cached evidence on a removal)
// and the journal. Only bootstrap and compaction infer a schema over
// the whole tree. A leg applies an add only at the ordinal its own
// document assigns next and answers 422 otherwise, so replicas cannot
// drift apart silently. What stays here is the partition: ownership,
// the spine index, the owning group's index upkeep (a merge on add, a
// rebuild of the victim's group on remove) and the coordinator's df
// map, which a leg cannot compute without indexing the whole tree.
// Every request body a leg decodes is capped (maxWireBody); a larger
// one answers 413 and changes nothing.
//
// # Failure semantics
//
// Per-request timeouts, bounded retries with backoff, and hedged
// reads live in the leg client. Ranked queries may degrade under an
// AllowPartial policy: a dead leg's contribution is dropped and the
// page is flagged (total = StreamTotalUnknown) — partial and marked,
// never silently wrong. Doc-order search is always strict, because a
// missing leg could promote spurious spine SLCAs. A request no replica
// can serve (an unknown query kind, an unparsable probe ID, a body over
// the cap) answers 400 or 413, which the leg client treats as final:
// no retry, no failover, no replica demotion. A leg restarted from its
// shipped group snapshot (package persist) resumes at the snapshot's
// epoch with bit-identical state.
//
// # Replication and admission control
//
// DialReplicas accepts N replica endpoints per shard group. Reads
// rotate round-robin across a group's healthy replicas and fail over
// to the next replica before spending the retry budget; hedged reads
// race two distinct replicas. Writes broadcast to every replica of
// every group; a replica that misses a write holds the op as pending
// (reads against it 409 until the next broadcast or Flush lands it),
// so lag costs latency, never answers. A crashed replica self-heals
// by fetching a live peer's group snapshot (FetchSnapshot against
// /shard/v1/snapshot) and rejoining at the peer's epoch.
//
// Config.MaxInflight bounds concurrently running ranked queries with
// a semaphore plus a bounded wait queue; queries past both watermarks
// are shed with ErrOverloaded (HTTP 503 + Retry-After upstream)
// without touching cluster state. Doc-order reads and writes are
// never shed. The chaos harness in chaos_test.go soaks kills,
// restarts-from-peer, partitions, slow legs, and shed bursts under a
// logged seed plus every committed regression seed, checking every
// settled read bit-identical against a replayed in-process oracle.
package dist
