package reference

import (
	"math"
	"sort"

	"repro/internal/dewey"
	"repro/internal/index"
)

// Ranked is one scored hit of the eager ranking.
type Ranked struct {
	Hit
	Score float64
}

// Rank is the eager TF-IDF ranking: each hit scores, per query keyword
// in query order, (1 + ln tf) · ln((N+1)/(df+1)), with tf the keyword's
// postings in idx at or below the hit's entity, df its posting count
// and N totalNodes; tf = 0 adds nothing and tf = 1 the bare IDF. Hits
// are then stably sorted by score, highest first.
func Rank(idx *index.Index, totalNodes int, hits []Hit, query string) []Ranked {
	terms := index.TokenizeQuery(query)
	out := make([]Ranked, len(hits))
	for i, h := range hits {
		out[i].Hit = h
		for _, t := range terms {
			list := idx.Lookup(t)
			tf := countUnder(list, h.Node.ID)
			if tf == 0 {
				continue
			}
			idf := math.Log(float64(totalNodes+1) / float64(len(list)+1))
			if tf == 1 {
				out[i].Score += idf
			} else {
				out[i].Score += (1 + math.Log(float64(tf))) * idf
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

// countUnder counts the postings at or below root.
func countUnder(list index.PostingList, root dewey.ID) int {
	n := 0
	for _, id := range list {
		if root.IsAncestorOrSelf(id) {
			n++
		}
	}
	return n
}
