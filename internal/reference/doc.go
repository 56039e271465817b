// Package reference holds the plain, obviously-correct implementations
// the served read path is tested against: the quadratic Naive SLCA, the
// two eager SLCA algorithms of Xu & Papakonstantinou (SIGMOD 2005) —
// IndexedLookupEager and ScanEager — an eager entity map and an eager
// TF-IDF ranking.
//
// Nothing outside _test.go files imports this package. It depends only
// on dewey, index and xmltree, so every executor's internal tests can
// hold their results to it without an import cycle.
package reference
