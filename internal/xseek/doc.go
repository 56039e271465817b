// Package xseek implements an XSeek-style keyword search engine for
// XML (Liu & Chen, SIGMOD 2007 / VLDB 2008): SLCA-based matching plus
// inference of the result's meaningful return information. It supplies
// XSACT's "Search Engine" and "Entity Identifier" boxes (Figure 3 of
// the demo paper).
//
// The entity identifier reasons over a schema summary inferred from
// the data, in the spirit of the Entity-Relationship model:
//
//   - a node type is a *-node if some parent instance has two or more
//     children of that tag — multiple instances indicate an entity set;
//   - a non-*-node leaf carrying a value denotes an attribute;
//   - remaining nodes are connection nodes (structural glue).
//
// Every read runs one lazy pipeline: Compile resolves the posting
// lists, Query.SLCAIter streams the SLCAs (package slca), EntityStream
// lifts each to its nearest entity in document order, and either a
// ResultStream labels the hits — Search and Execute drain it, paged
// reads stop early — or ConsumeRankedWAND keeps the top-k. The sharded
// spine fix-up lifts its own SLCAs through the same EntityStream via
// MapToEntities. The eager entity map survives only as the test oracle
// in internal/reference.
package xseek
