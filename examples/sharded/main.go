// Sharded: the same corpus served monolithic and with 4 index shards,
// demonstrating that Options.Shards changes execution — parallel
// per-shard builds, queries over a multi-part posting view — but never
// results: both engines return identical result lists, rankings, and
// pages.
package main

import (
	"fmt"
	"log"

	xsact "repro"
)

func main() {
	mono, err := xsact.BuiltinDataset("reviews", 1)
	if err != nil {
		log.Fatal(err)
	}
	sharded, err := xsact.BuiltinDatasetWith("reviews", 1, xsact.Options{Shards: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("engines: monolithic (%d shard) vs sharded (%d shards)\n\n",
		mono.Shards(), sharded.Shards())

	query := "tomtom gps"
	a, err := mono.Search(query)
	if err != nil {
		log.Fatal(err)
	}
	b, err := sharded.Search(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%q: %d results from both engines\n", query, len(a))
	for i := range a {
		marker := "=="
		if a[i].Label != b[i].Label {
			marker = "!!" // never happens: sharded search is result-identical
		}
		fmt.Printf("  %s %s\n", marker, a[i].Describe())
	}

	// Ranked pages come from a K-way heap merge of per-shard streams —
	// and still match the monolithic ranking entry for entry.
	top, scores, total, err := sharded.SearchRankedPage(query, 3, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntop 3 of %d by relevance (sharded ranked page):\n", total)
	for i, r := range top {
		fmt.Printf("  %.3f  %s\n", scores[i], r.Label)
	}
}
