// Command xsactd serves XSACT's web demo (the paper's Figure 5): a
// search box over the built-in datasets, a result list with
// checkboxes, a size-bound field, and a "Compare" button that renders
// the comparison table. A versioned JSON API (/api/v1/search,
// /api/v1/compare, /api/v1/snippet, /api/v1/metrics) exposes the same
// pipeline to programmatic clients and load generators.
//
// Each dataset's corpus and serving engine are built lazily on the
// first request that touches them, then shared — with their query,
// feature-stats, and DFS caches — across all subsequent requests.
// With -snapshot-dir, an engine's derived state (inverted index +
// inferred schema) is reloaded from disk when a valid snapshot exists
// and written back after a fresh build, so restarts skip the rebuild.
// Snapshots are written in the v4 layout, which is mmap-ed on load and
// decodes postings lazily as queries touch them (near-zero restart). A
// snapshot that embeds its corpus (a written-to dataset, or one in the
// retired journaled v3 layout), or that persist loaded through an index
// build because its layout is retired, is rewritten as v4 from the
// loaded engine straight away; older layouts cost one rebuild.
//
// The corpus is live: POST /api/v1/documents adds a top-level entity
// (immediately searchable), DELETE /api/v1/documents removes one, and
// POST /api/v1/compact folds pending writes back into the base index
// under an epoch swap that never blocks queries. -compact-every N
// compacts automatically after N pending writes. With -snapshot-dir,
// every accepted write re-saves the snapshot with its journal of
// pending writes, which a restart replays.
//
// The binary also hosts the two distributed roles: -shard-server
// serves one shard leg of every dataset over the versioned wire API
// (/shard/v1/*), and -coordinator serves the same web UI and JSON API
// as the standalone server with every query fanned out to the legs
// over HTTP — bit-identical to the standalone server in one process.
//
// Usage:
//
//	xsactd [-addr :8080] [-seed 1] [-snapshot-dir DIR] [-compact-every N] [-pprof :6060]
//	xsactd -shard-server -shard-id I -shard-count K [-addr :9101] [-seed 1] [-snapshot-dir DIR] [-peer URL]
//	xsactd -coordinator URL1,URL2,... [-addr :8080] [-seed 1] [-replicas N] [-max-inflight N] [-dist-timeout 5s] [-dist-retries 2] [-dist-hedge 0] [-dist-partial]
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/dist"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		seed         = flag.Int64("seed", 1, "dataset seed")
		snapshotDir  = flag.String("snapshot-dir", "", "directory for engine snapshots (empty = rebuild on every start)")
		compactEvery = flag.Int("compact-every", 64, "auto-compact the live write path after this many pending writes (0 = manual compaction only)")
		pprofAddr    = flag.String("pprof", "", "profiling listen address for /debug/pprof/ and /debug/memstats (empty = profiling off); keep it off public ingress")

		shardServer = flag.Bool("shard-server", false, "serve one shard leg over the wire API instead of the web UI")
		shardID     = flag.Int("shard-id", 0, "this leg's shard number (with -shard-server)")
		shardCount  = flag.Int("shard-count", 1, "total shard legs in the cluster (with -shard-server)")
		peer        = flag.String("peer", "", "live replica base URL to fetch snapshots from when the local one is missing or stale (with -shard-server)")
		coordinator = flag.String("coordinator", "", "comma-separated shard-server base URLs; serve as the HTTP fan-out coordinator")
		replicas    = flag.Int("replicas", 1, "replicas per shard group: consecutive coordinator URLs form one group's replica set")
		maxInflight = flag.Int("max-inflight", 0, "cap concurrently running ranked queries at the coordinator, shedding excess with 503 (0 = no admission control)")
		distTimeout = flag.Duration("dist-timeout", 5*time.Second, "coordinator per-request leg timeout")
		distRetries = flag.Int("dist-retries", 2, "coordinator retries per leg call after a transport failure")
		distHedge   = flag.Duration("dist-hedge", 0, "launch a hedged duplicate leg read after this delay (0 = off)")
		distPartial = flag.Bool("dist-partial", false, "let ranked queries degrade to flagged partial pages when a leg stays unreachable")
	)
	flag.Parse()

	if *shardServer {
		log.Fatal(runShardServer(*addr, *seed, *shardID, *shardCount, *snapshotDir, *peer))
	}

	var srv *server
	var err error
	if *coordinator != "" {
		cfg := dist.Config{Timeout: *distTimeout, Retries: *distRetries,
			Hedge: *distHedge, AllowPartial: *distPartial,
			MaxInflight: *maxInflight}
		srv, err = newCoordinatorServer(*seed, strings.Split(*coordinator, ","), *replicas, *compactEvery, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xsactd:", err)
			os.Exit(1)
		}
		log.Printf("xsactd coordinator on %s (legs: %s, replicas: %d)", *addr, *coordinator, *replicas)
		log.Fatal(http.ListenAndServe(*addr, srv.routes()))
	}

	srv, err = newServer(*seed, *snapshotDir, *compactEvery)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xsactd:", err)
		os.Exit(1)
	}
	if *pprofAddr != "" {
		go func() {
			log.Printf("xsactd profiling on %s (/debug/pprof/, /debug/memstats)", *pprofAddr)
			// Profiling is best-effort: losing the side listener should
			// not take the server down.
			log.Printf("xsactd profiling listener stopped: %v", http.ListenAndServe(*pprofAddr, profilingHandler()))
		}()
	}
	log.Printf("xsactd listening on %s (datasets: %v)", *addr, srv.datasetNames())
	log.Fatal(http.ListenAndServe(*addr, srv.routes()))
}

// datasetNames lists the loaded corpora in menu order.
func (s *server) datasetNames() []string {
	names := make([]string, len(s.order))
	copy(names, s.order)
	return names
}
