package slca

import (
	"fmt"
	"testing"

	"repro/internal/dewey"
	"repro/internal/index"
)

// syntheticLists builds a two-keyword workload over nEntities synthetic
// entities (Dewey IDs (0, i, ·)): the common term appears in every
// entity, the rare term in every skew-th one. skew 1 is the uniform
// workload, larger skews model a rare + common keyword pair.
func syntheticLists(nEntities, skew int) []index.PostingList {
	common := make(index.PostingList, 0, nEntities)
	rare := make(index.PostingList, 0, nEntities/skew+1)
	for i := 0; i < nEntities; i++ {
		common = append(common, dewey.New(0, i, 0))
		if i%skew == 0 {
			rare = append(rare, dewey.New(0, i, 1))
		}
	}
	return []index.PostingList{rare, common}
}

// BenchmarkPlanner calibrates DefaultSkewThreshold: for each list-shape
// skew it drains both seek disciplines of the served SLCA stream and
// the planner's automatic choice. The planner is correct when auto
// tracks the faster fixed discipline at every skew — linear merge on
// uniform shapes, galloping on heavily skewed ones.
func BenchmarkPlanner(b *testing.B) {
	const nEntities = 50000
	for _, skew := range []int{1, 2, 4, 8, 16, 24, 32, 48, 64, 256} {
		lists := syntheticLists(nEntities, skew)
		for _, c := range []struct {
			name   string
			stream func([]index.PostingList) Iterator
		}{
			{string(AlgIndexedLookup), IndexedLookupStream},
			{string(AlgScanEager), ScanStream},
			{string(AlgAuto), Stream},
		} {
			b.Run(fmt.Sprintf("skew=%d/%s", skew, c.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_ = Collect(c.stream(lists))
				}
			})
		}
	}
}
