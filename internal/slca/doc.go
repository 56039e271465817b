// Package slca computes Smallest Lowest Common Ancestors (SLCAs) of
// XML keyword queries — the match semantics used by XSeek and hence by
// XSACT's search-engine substrate.
//
// Given posting lists S1..Sk (one per keyword), a node v is an LCA
// candidate if its subtree contains at least one node from every list;
// v is an SLCA if additionally no proper descendant of v is also a
// candidate. Results are returned in document order.
//
// There is one implementation, and every read path serves it: a lazy
// Iterator that drives the smallest list and folds each of its nodes
// against its closest neighbours in the other lists (Xu &
// Papakonstantinou, SIGMOD 2005), keeping one tentative result so each
// SLCA is emitted as soon as it is final. Plan picks the seek
// discipline on the other lists from their shape statistics: linear
// merge pointers (ScanStream) on uniform sizes, galloping probes
// (IndexedLookupStream) when a rare term makes the driving list short.
// The eager algorithms and the quadratic Naive oracle live in
// internal/reference, which only tests import.
package slca
