package slca

import "repro/internal/index"

// Algorithm names the seek discipline the SLCA stream uses on the
// non-driving posting lists.
type Algorithm string

const (
	// AlgAuto lets the planner choose from the lists' shape.
	AlgAuto Algorithm = "auto"
	// AlgIndexedLookup (IndexedLookupStream) probes the other lists with
	// galloping seeks. Wins when the driving list is much shorter than
	// the rest (|S1|·k·log|S| ≪ Σ|Si|).
	AlgIndexedLookup Algorithm = "indexed-lookup-eager"
	// AlgScanEager (ScanStream) advances linear merge pointers through
	// the other lists. Wins when list sizes are uniform — one linear
	// pass beats |S1|·log|S| random probes.
	AlgScanEager Algorithm = "scan-eager"
)

// DefaultSkewThreshold is the Max/Min list-length ratio above which the
// planner prefers galloping seeks (IndexedLookupStream) over linear
// ones (ScanStream). BenchmarkPlanner times both on a rare + common
// term pair at every skew; the threshold sits where they cross.
const DefaultSkewThreshold = 48.0

// Plan picks the cheaper seek discipline from posting-list shape
// statistics: galloping when a rare term makes the driving list much
// shorter than the longest list, linear otherwise. It is a pure
// function so callers can record or override the decision.
func Plan(stats index.PlanStats) Algorithm {
	if stats.Skew >= DefaultSkewThreshold {
		return AlgIndexedLookup
	}
	return AlgScanEager
}
