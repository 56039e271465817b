// Package persist snapshots a serving engine so a server restart
// reloads it from disk instead of re-walking the corpus: the inverted
// index, the inferred schema, corpus metadata, and —
// for a corpus that has accepted writes — the document itself plus the
// journal of writes pending since the last compaction.
//
// One layout is written: version 4 (v4.go), a one-line text header
// ("XSACTSNAP 4\n") followed by self-describing checksummed sections.
// LoadFile mmaps it and serves postings straight out of the mapping. A
// never-written corpus is not stored: the caller regenerates (dataset
// seeds) or re-parses it, and Load checks a corpus fingerprint (root
// tag + node count + content hash) before trusting the derived state.
// A live corpus carries its base tree and replays its journal through
// the engine's write path, so a restart resumes exactly where the
// writer stopped; an engine loaded that way keeps carrying its tree in
// every later snapshot, even one taken before its next write.
//
// Load also reads version 3 (live.go), the retired journaled layout,
// because its journal holds accepted user writes: it rebuilds the base
// from the embedded XML and replays the journal. A v4 file an older
// build wrote over a sharded base (per-shard postings sections) loads
// the same way: one index is built over the verified tree and any
// journal is replayed. Versions 1 and 2
// held only derived state of a corpus the caller can regenerate, so
// they fail closed with a "rebuild" error, as does any header, version,
// checksum or fingerprint mismatch; callers fall back to a rebuild and
// write a fresh v4 snapshot.
//
// The per-leg shard-group snapshot (group.go) is a separate format:
// the distributed cluster's wire contract.
package persist
