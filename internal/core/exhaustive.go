package core

import "repro/internal/feature"

// Exhaustive computes globally optimal DFSs by enumerating every
// combination of valid selections across all results and maximizing
// total DoD. Its cost is exponential; it exists as a ground-truth
// oracle for tests and small ablation studies. Inputs beyond
// MaxExhaustiveSelections valid selections per result are rejected by
// returning nil (callers must keep instances tiny).
func Exhaustive(stats []*feature.Stats, opts Options) []*DFS {
	opts = opts.normalized()
	all := make([][]Selection, len(stats))
	for i, s := range stats {
		all[i] = enumerateSelections(s, opts.SizeBound)
		if len(all[i]) == 0 || len(all[i]) > MaxExhaustiveSelections {
			return nil
		}
	}
	dfss := make([]*DFS, len(stats))
	for i, s := range stats {
		dfss[i] = &DFS{Stats: s}
	}
	best := make([]Selection, len(stats))
	bestDoD := -1

	var rec func(i int)
	rec = func(i int) {
		if i == len(stats) {
			if d := TotalDoD(dfss, opts.Threshold); d > bestDoD {
				bestDoD = d
				for k, dd := range dfss {
					best[k] = dd.Sel.Clone()
				}
			}
			return
		}
		for _, sel := range all[i] {
			dfss[i].Sel = sel
			rec(i + 1)
		}
	}
	rec(0)

	for i := range dfss {
		dfss[i].Sel = best[i]
	}
	return dfss
}

// MaxExhaustiveSelections bounds the per-result search space of
// Exhaustive.
const MaxExhaustiveSelections = 20000

// enumerateSelections lists every valid selection of size <= bound for
// the given statistics, including the empty one.
func enumerateSelections(s *feature.Stats, bound int) []Selection {
	entities := s.Entities()
	var out []Selection
	cur := make(Selection)

	var perEntity func(ei int, budget int)
	perEntity = func(ei, budget int) {
		if ei == len(entities) {
			out = append(out, cur.Clone())
			return
		}
		order := s.TypesOf(entities[ei])
		// Choose a prefix length k and depths for each selected type.
		var prefix func(k, budget int)
		prefix = func(k, budget int) {
			// Option: stop the prefix here, move to next entity.
			perEntity(ei+1, budget)
			if k == len(order) || budget == 0 {
				return
			}
			t := order[k]
			nvals := len(s.ValuesOf(t))
			for depth := 1; depth <= nvals && depth <= budget; depth++ {
				cur[t] = depth
				prefix(k+1, budget-depth)
			}
			delete(cur, t)
		}
		prefix(0, budget)
	}
	perEntity(0, bound)
	return out
}
