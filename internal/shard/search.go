package shard

import (
	"sort"

	"repro/internal/core"
	"repro/internal/dewey"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// Search runs a keyword query across every leg and merges, returning
// exactly the result list a monolithic engine produces: same result
// set, same document order, same labels, same NoMatchError for
// globally absent keywords.
//
// The per-leg work (compile → plan → SLCA → entity-map over the
// group's index, spine filtering) lives behind the Leg interface;
// leg-local SLCAs that land on spine nodes are cross-segment
// artifacts and are discarded there, then the spine fix-up re-derives
// the true spine SLCAs with whole-corpus knowledge.
//
// The doc-order path is always strict: any leg failure fails the
// query, whatever the failure policy, because a missing leg's segment
// SLCAs could promote spurious spine SLCAs — a wrong answer, not a
// partial one.
func (f *Fanout) Search(query string) ([]*xseek.Result, error) {
	// Global keyword check first: a term with zero aggregate frequency
	// fails the whole query, mirroring the monolithic NoMatchError.
	terms, err := xseek.Keywords(f.df, query)
	if err != nil {
		return nil, err
	}

	lq := LegQuery{Query: query, Terms: terms}
	outs := make([]LegDocs, len(f.legs))
	errs := make([]error, len(f.legs))
	core.ForEachParallel(len(f.legs), 0, func(g int) {
		outs[g], errs[g] = f.legs[g].SearchLeg(lq)
	})
	var merged []*xseek.Result
	var segSLCAs []dewey.ID // all kept SLCAs; sorted, since groups are contiguous
	var boundary [][]*xseek.Result
	for g, o := range outs {
		if errs[g] != nil {
			return nil, errs[g]
		}
		merged = append(merged, o.Results...)
		segSLCAs = append(segSLCAs, o.SLCAs...)
		if len(o.Boundary) > 0 {
			boundary = append(boundary, o.Boundary)
		}
	}

	spineIDs, err := f.spineSLCAs(terms, segSLCAs)
	if err != nil {
		return nil, err
	}
	var spineRes []*xseek.Result
	if len(spineIDs) > 0 {
		if spineRes, err = f.spine.MapToEntities(spineIDs); err != nil {
			return nil, err
		}
	}
	if bucket := coalesceSpineResults(spineRes, boundary); len(bucket) > 0 {
		merged = mergeByID(bucket, merged)
	}
	return merged, nil
}

// coalesceSpineResults merges the spine-rooted result lists — the
// spine fix-up's own results plus every leg's boundary reports — into
// one document-ordered list with one result per entity. Several
// sources can name the same entity (an entity split across groups has
// matches in each, and possibly a spine SLCA of its own); the
// monolithic entity map keeps the document-order-first match as the
// witness, so the merge keeps the entry with the smallest match ID.
func coalesceSpineResults(spineRes []*xseek.Result, boundary [][]*xseek.Result) []*xseek.Result {
	all := spineRes
	for _, b := range boundary {
		all = append(all, b...)
	}
	if len(all) <= 1 {
		return all
	}
	sort.SliceStable(all, func(i, j int) bool {
		if c := all[i].Node.ID.Compare(all[j].Node.ID); c != 0 {
			return c < 0
		}
		return all[i].Match.ID.Compare(all[j].Match.ID) < 0
	})
	out := all[:1]
	for _, r := range all[1:] {
		if !r.Node.ID.Equal(out[len(out)-1].Node.ID) {
			out = append(out, r)
		}
	}
	return out
}

// spineSLCAs derives the SLCAs that land on spine nodes — the one part
// of the answer needing cross-shard knowledge. Walking the spine
// deepest-first, a node is an SLCA exactly when every keyword has a
// witness somewhere in its subtree and no already-established SLCA
// (segment-internal or deeper spine) lies strictly below it. The spine
// is tiny (root plus wrappers above the topmost entities), so the
// witness counts amount to one batched probe per leg.
func (f *Fanout) spineSLCAs(terms []string, segSLCAs []dewey.ID) ([]dewey.ID, error) {
	// Candidates surviving the cheap disqualifier (a binary search over
	// the segment SLCAs); their witness counts are fetched in one
	// batch. A candidate later disqualified by a deeper accepted spine
	// node just ignores its counts — over-fetching is harmless and
	// keeps the remote round trips at one per leg.
	cands := make([]*xmltree.Node, 0, len(f.spineByDepth))
	for _, n := range f.spineByDepth {
		if !hasStrictDescendant(segSLCAs, n.ID) {
			cands = append(cands, n)
		}
	}
	if len(cands) == 0 {
		return nil, nil
	}
	uniq := uniqueTerms(terms)
	probes := make([]TFProbe, 0, len(cands)*len(uniq))
	for _, n := range cands {
		for _, t := range uniq {
			probes = append(probes, TFProbe{Term: t, ID: n.ID})
		}
	}
	counts, err := f.tfCounts(probes)
	if err != nil {
		return nil, err
	}

	var accepted []dewey.ID
	for ci, n := range cands {
		below := false
		for _, a := range accepted {
			if n.ID.IsAncestorOf(a) {
				below = true
				break
			}
		}
		if below {
			continue
		}
		witness := true
		for ti := range uniq {
			if counts[ci*len(uniq)+ti] == 0 {
				witness = false
				break
			}
		}
		if !witness {
			continue
		}
		accepted = append(accepted, n.ID)
	}
	sort.Slice(accepted, func(i, j int) bool { return accepted[i].Compare(accepted[j]) < 0 })
	return accepted, nil
}

// uniqueTerms returns the terms with duplicates dropped, preserving
// first-occurrence order.
func uniqueTerms(terms []string) []string {
	seen := make(map[string]bool, len(terms))
	out := make([]string, 0, len(terms))
	for _, t := range terms {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// hasStrictDescendant reports whether the sorted ID list contains a
// proper descendant of id. Descendants follow id immediately in
// document order, so one binary search decides.
func hasStrictDescendant(sorted []dewey.ID, id dewey.ID) bool {
	i := sort.Search(len(sorted), func(k int) bool { return sorted[k].Compare(id) > 0 })
	return i < len(sorted) && id.IsAncestorOf(sorted[i])
}

// mergeByID merges two document-ordered result lists into one. Result
// roots are distinct across the inputs (spine vs segment nodes), so no
// dedupe is needed.
func mergeByID(a, b []*xseek.Result) []*xseek.Result {
	out := make([]*xseek.Result, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Node.ID.Compare(b[j].Node.ID) < 0 {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
