package main

// Distributed roles: `xsactd -shard-server -shard-id=i -shard-count=K`
// turns the binary into one shard leg serving its group of every
// built-in dataset over the versioned wire API; `xsactd
// -coordinator=url1,url2,...` serves the normal web UI and JSON API,
// but every query fans out to the legs over HTTP and every write is
// broadcast under the epoch protocol. Results are bit-identical to the
// standalone server over the same datasets in one process.

import (
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"

	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/persist"
	"repro/internal/xmltree"
)

// datasetDef is one built-in dataset: its menu name (also the wire
// corpus key), snapshot slug, and deterministic generator. Both roles
// build from the same table, so a coordinator and its legs always
// agree on corpus names and trees.
type datasetDef struct {
	name, slug string
	gen        func() *xmltree.Node
}

func datasetDefs(seed int64) []datasetDef {
	return []datasetDef{
		{"Product Reviews", "reviews", func() *xmltree.Node {
			return dataset.ProductReviews(dataset.ReviewsConfig{Seed: seed})
		}},
		{"Outdoor Retailer", "retailer", func() *xmltree.Node {
			return dataset.OutdoorRetailer(dataset.RetailerConfig{Seed: seed})
		}},
		{"Movies", "movies", func() *xmltree.Node {
			return dataset.Movies(dataset.MoviesConfig{Seed: seed})
		}},
	}
}

// groupSnapshotFile names a shard server's per-corpus group snapshot.
func groupSnapshotFile(slug string, seed int64, shardID int) string {
	return fmt.Sprintf("%s-seed%d-shard%d.sgroup", slug, seed, shardID)
}

// runShardServer serves one shard leg of every dataset. With a
// snapshot dir, each corpus is restored from its group snapshot when
// one is present (resuming at the pre-crash epoch); with a peer, a
// live replica is asked for its snapshot too, and whichever source is
// at the higher epoch wins — the self-healing path that lets a
// replica rejoin a cluster that moved on while it was down. With
// neither (or when both fail) the corpus bootstraps fresh at epoch 0;
// /shard/v1/snapshot serves the bytes a replacement process restores
// from.
func runShardServer(addr string, seed int64, shardID, shardCount int, snapshotDir, peer string) error {
	srv, err := dist.NewServer(shardID, shardCount)
	if err != nil {
		return err
	}
	for _, d := range datasetDefs(seed) {
		snap := loadGroupSnapshot(d, seed, shardID, snapshotDir, peer)
		if snap != nil {
			if err := srv.RestoreCorpus(d.name, snap); err == nil {
				log.Printf("xsactd: %s: restored at epoch %d", d.name, snap.Epoch)
				continue
			} else {
				log.Printf("xsactd: %s: restore failed (%v); bootstrapping fresh", d.name, err)
			}
		}
		if err := srv.AddCorpus(d.name, d.gen()); err != nil {
			return fmt.Errorf("%s: %w", d.name, err)
		}
	}
	log.Printf("xsactd shard server %d/%d listening on %s", shardID, shardCount, addr)
	return http.ListenAndServe(addr, srv)
}

// loadGroupSnapshot picks one corpus's best restore source: the local
// group snapshot file, a live peer replica's snapshot, or neither.
// When both are available the higher epoch wins — a local file that
// survived the crash may still be stale against a peer that kept
// taking writes. Failures are never fatal — a missing or corrupt
// source just costs a fresh bootstrap (at epoch 0; the coordinator's
// Dial validation catches a leg that lost its writes).
func loadGroupSnapshot(d datasetDef, seed int64, shardID int, snapshotDir, peer string) *persist.GroupSnapshot {
	var local *persist.GroupSnapshot
	if snapshotDir != "" {
		path := filepath.Join(snapshotDir, groupSnapshotFile(d.slug, seed, shardID))
		local = readGroupFile(d.name, path)
	}
	if peer != "" {
		remote, err := dist.FetchSnapshot(peer, d.name, 0)
		if err != nil {
			log.Printf("xsactd: %s: peer snapshot from %s unavailable (%v)", d.name, peer, err)
		} else if local == nil || remote.Epoch > local.Epoch {
			if local != nil {
				log.Printf("xsactd: %s: local snapshot stale (epoch %d < peer %d); using peer", d.name, local.Epoch, remote.Epoch)
			}
			return remote
		}
	}
	return local
}

// readGroupFile decodes one group snapshot file, nil on any failure.
func readGroupFile(name, path string) *persist.GroupSnapshot {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	snap, err := persist.DecodeGroup(f)
	if err != nil {
		log.Printf("xsactd: %s: group snapshot %s unusable (%v)", name, path, err)
		return nil
	}
	return snap
}

// newCoordinatorServer assembles the web server in coordinator mode:
// every dataset's engine is a distributed coordinator dialed over the
// shard endpoints, wrapped in the same serving layer (caches, ranked
// retries, streamed routing) the in-process engines use. Engines stay
// lazy — a dataset's legs are only dialed when the first request
// touches it.
func newCoordinatorServer(seed int64, endpoints []string, replicas, compactEvery int, cfg dist.Config) (*server, error) {
	groups, err := dist.GroupEndpoints(endpoints, replicas)
	if err != nil {
		return nil, err
	}
	s := &server{
		datasets: make(map[string]*lazyEngine), slugs: make(map[string]string),
		seed: seed,
	}
	for _, d := range datasetDefs(seed) {
		d := d
		s.datasets[d.name] = &lazyEngine{build: func() *engine.Engine {
			co, err := dist.DialReplicas(groups, d.name, d.gen(), cfg)
			if err != nil {
				log.Printf("xsactd: %s: dialing shard cluster failed: %v", d.name, err)
				panic(err) // unwinds through lazyEngine; the next request retries
			}
			return engine.FromDist(co, engine.Config{AutoCompactThreshold: compactEvery})
		}}
		s.order = append(s.order, d.name)
		s.slugs[d.name] = d.slug
	}
	return s, nil
}
