package xsact

import (
	"time"

	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/xmltree"
)

// This file is the facade over distributed serving (internal/dist): a
// Document whose queries fan out over HTTP to a cluster of shard
// servers (xsactd -shard-server) and whose writes are broadcast under
// the cluster's epoch protocol. Search results, ranking scores, tie
// order, and paging envelopes are bit-identical to a Document over the
// same corpus in one process.

// ClusterOptions configures a distributed Document.
type ClusterOptions struct {
	// AutoCompactEvery triggers a background cluster-wide compaction
	// once that many uncompacted writes are pending; 0 leaves
	// compaction to explicit Compact calls.
	AutoCompactEvery int
	// Timeout bounds each leg request (default 5s); Retries the extra
	// attempts after a transport failure (default 2).
	Timeout time.Duration
	Retries int
	// Hedge, when > 0, launches a duplicate leg read if the first has
	// not answered within this delay; the first response wins.
	Hedge time.Duration
	// AllowPartial lets ranked queries degrade to flagged partial pages
	// (total reported unknown) when a leg stays unreachable, instead of
	// failing. Document-order search stays strict either way.
	AllowPartial bool
	// Replicas groups the endpoint list into consecutive replica sets
	// of this size (default 1): with Replicas = 2 the first two
	// endpoints serve shard 0, the next two shard 1, and so on. Reads
	// spread round-robin across a group's replicas and fail over on
	// per-replica errors; writes reach every replica.
	Replicas int
	// MaxInflight caps concurrently running ranked queries at the
	// coordinator; excess queries wait in a bounded queue (MaxQueue
	// deep, defaulting to MaxInflight) and beyond that are shed with
	// ErrOverloaded. 0 disables admission control.
	MaxInflight int
	MaxQueue    int
}

// ErrOverloaded is returned by ranked queries the coordinator's
// admission control shed; retry after a short delay.
var ErrOverloaded = dist.ErrOverloaded

// FromCluster connects a corpus to a running shard cluster: root must
// be the same document every shard server bootstrapped the named
// corpus from, and endpoints the legs' base URLs in shard order
// (grouped into replica sets when ClusterOptions.Replicas > 1). The
// returned Document serves the full API — search, ranking, compare,
// live writes — through the coordinator.
func FromCluster(root *xmltree.Node, endpoints []string, corpus string, opts ClusterOptions) (*Document, error) {
	groups, err := dist.GroupEndpoints(endpoints, opts.Replicas)
	if err != nil {
		return nil, err
	}
	co, err := dist.DialReplicas(groups, corpus, root, dist.Config{
		Timeout: opts.Timeout, Retries: opts.Retries,
		Hedge: opts.Hedge, AllowPartial: opts.AllowPartial,
		MaxInflight: opts.MaxInflight, MaxQueue: opts.MaxQueue,
	})
	if err != nil {
		return nil, err
	}
	return &Document{
		root: root,
		eng:  engine.FromDist(co, engine.Config{AutoCompactThreshold: opts.AutoCompactEvery}),
	}, nil
}
