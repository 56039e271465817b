package core

// The map-based implementation the dense kernel replaced, kept verbatim
// (renamed ref*) as the oracle the equivalence tests compare against:
// it re-walks value prefixes through Stats.Rel on every move instead of
// comparing first-differing depths.

import (
	"math"
	"math/rand"

	"repro/internal/feature"
)

// refTypeDiffers reports whether results a and b, with value depths da
// and db for shared type t, are differentiable in t: some value shown
// by either side has relative frequencies differing by more than x.
// The hot path of every algorithm; depths are small, so the b-side
// dedup is a linear scan over a's shown prefix rather than a map.
func refTypeDiffers(a, b *feature.Stats, t feature.Type, da, db int, x float64) bool {
	avals := a.ValuesOf(t)
	if da > len(avals) {
		da = len(avals)
	}
	for _, vc := range avals[:da] {
		if relDiffer(a.Rel(t, vc.Value), b.Rel(t, vc.Value), x) {
			return true
		}
	}
	bvals := b.ValuesOf(t)
	if db > len(bvals) {
		db = len(bvals)
	}
outer:
	for _, vc := range bvals[:db] {
		for _, avc := range avals[:da] {
			if avc.Value == vc.Value {
				continue outer
			}
		}
		if relDiffer(a.Rel(t, vc.Value), b.Rel(t, vc.Value), x) {
			return true
		}
	}
	return false
}

// refPairDoD returns the degree of differentiation of two DFSs: the
// number of feature types selected in both whose shown values expose a
// more-than-x relative difference.
func refPairDoD(a, b *DFS, x float64) int {
	dod := 0
	for t, da := range a.Sel {
		db, ok := b.Sel[t]
		if !ok {
			continue
		}
		if refTypeDiffers(a.Stats, b.Stats, t, da, db, x) {
			dod++
		}
	}
	return dod
}

// refTotalDoD returns the summed DoD over all pairs of DFSs —
// Desideratum 3's objective.
func refTotalDoD(dfss []*DFS, x float64) int {
	total := 0
	for i := 0; i < len(dfss); i++ {
		for j := i + 1; j < len(dfss); j++ {
			total += refPairDoD(dfss[i], dfss[j], x)
		}
	}
	return total
}

// refResultDoD returns Σ_j refPairDoD(dfss[i], dfss[j]) for j ≠ i — the part
// of the objective affected by changing result i's selection.
func refResultDoD(dfss []*DFS, i int, x float64) int {
	sum := 0
	for j := range dfss {
		if j != i {
			sum += refPairDoD(dfss[i], dfss[j], x)
		}
	}
	return sum
}

// newDFSs wraps stats into DFS shells with empty selections.
func newDFSs(stats []*feature.Stats) []*DFS {
	out := make([]*DFS, len(stats))
	for i, s := range stats {
		out[i] = &DFS{Stats: s, Sel: make(Selection)}
	}
	return out
}

// candidateGrow enumerates the grow moves available to d: deepening a
// selected type by one value or opening the next type of an entity at
// depth 1. Returned as (type, newDepth) pairs in deterministic order.
type move struct {
	t     feature.Type
	depth int // new depth after the move (0 = remove entirely)
}

func growMoves(d *DFS) []move {
	var out []move
	for _, e := range d.Stats.Entities() {
		order := d.Stats.TypesOf(e)
		k := 0
		for _, t := range order {
			if _, ok := d.Sel[t]; ok {
				k++
			} else {
				break
			}
		}
		for _, t := range order[:k] {
			if depth := d.Sel[t]; depth < len(d.Stats.ValuesOf(t)) {
				out = append(out, move{t: t, depth: depth + 1})
			}
		}
		if k < len(order) {
			out = append(out, move{t: order[k], depth: 1})
		}
	}
	return out
}

func shrinkMoves(d *DFS) []move {
	var out []move
	for _, e := range d.Stats.Entities() {
		order := d.Stats.TypesOf(e)
		k := 0
		for _, t := range order {
			if _, ok := d.Sel[t]; ok {
				k++
			} else {
				break
			}
		}
		for i, t := range order[:k] {
			depth := d.Sel[t]
			if depth >= 2 {
				out = append(out, move{t: t, depth: depth - 1})
			} else if i == k-1 {
				// Only the last type of the prefix may be dropped.
				out = append(out, move{t: t, depth: 0})
			}
		}
	}
	return out
}

func applyMove(sel Selection, m move) {
	if m.depth == 0 {
		delete(sel, m.t)
	} else {
		sel[m.t] = m.depth
	}
}

// pad fills leftover budget with the most *frequent* unselected
// features (valid growth only), mirroring how a summary spends space:
// each candidate grow move is scored by the relative frequency of the
// value it would reveal, so a product's singleton attributes (name,
// rating — frequency 1.0 within their entity) surface before a rare
// fourth-ranked pro. This is also the "valid top-fill" starting point
// of both local-search algorithms; scoring by value frequency rather
// than raw type totals keeps the initial summaries diverse across
// entities, which matters because a type can only ever differentiate
// once both sides select it.
func pad(d *DFS, bound int) {
	for d.Sel.Size() < bound {
		moves := growMoves(d)
		if len(moves) == 0 {
			return
		}
		best := -1
		for i := range moves {
			if best == -1 || betterPadMove(d.Stats, moves[i], moves[best]) {
				best = i
			}
		}
		applyMove(d.Sel, moves[best])
	}
}

func scoreMove(s *feature.Stats, m move) padScore {
	vc := s.ValuesOf(m.t)[m.depth-1]
	return padScore{
		rel:   float64(vc.Count) / float64(s.GroupCount(m.t.Entity)),
		count: vc.Count,
		total: s.TypeTotal(m.t),
	}
}

// betterPadMove orders grow moves within one result by padScore, with
// deterministic type/depth tie-breaks.
func betterPadMove(s *feature.Stats, a, b move) bool {
	pa, pb := scoreMove(s, a), scoreMove(s, b)
	if pa.better(pb) {
		return true
	}
	if pb.better(pa) {
		return false
	}
	if a.t != b.t {
		return a.t.Less(b.t)
	}
	return a.depth < b.depth
}

// refSingleSwap generates DFSs with the paper's single-swap method: start
// every result from the valid frequency top-fill (the natural summary)
// and repeatedly apply the first add / remove / change-one-feature
// move that strictly increases total DoD, cycling over results until
// no single move helps. The fixpoint is single-swap optimal: changing
// or adding any one feature of any DFS cannot increase DoD.
//
// Changing type t in result i only perturbs the DoD terms of t in
// pairs (i, j), so moves are scored by a per-type delta rather than by
// re-evaluating the whole objective — this is what keeps single-swap
// cheap per step (Figure 4(b)).
func refSingleSwap(stats []*feature.Stats, opts Options) []*DFS {
	opts = opts.normalized()
	dfss := newDFSs(stats)
	for _, d := range dfss {
		pad(d, opts.SizeBound) // top-fill start: the valid significance summary
	}
	refSingleSwapAscend(dfss, opts)
	if opts.Pad {
		for _, d := range dfss {
			pad(d, opts.SizeBound)
		}
	}
	return dfss
}

// refSingleSwapAscend cycles first-improving moves over the results until
// none helps. Sequential across results, like refMultiSwapAscend.
func refSingleSwapAscend(dfss []*DFS, opts Options) {
	rounds := 0
	for {
		improved := false
		for i := range dfss {
			if refImproveOnce(dfss, i, opts) {
				improved = true
			}
		}
		rounds++
		if !improved || (opts.MaxRounds > 0 && rounds >= opts.MaxRounds) {
			break
		}
	}
}

// refTypeDelta returns the change in Σ_j DoD(D_i, D_j) caused by moving
// type t of result i from depth dOld to dNew (depth 0 = unselected).
func refTypeDelta(dfss []*DFS, i int, t feature.Type, dOld, dNew int, x float64) int {
	d := dfss[i]
	delta := 0
	for j, other := range dfss {
		if j == i {
			continue
		}
		dj, ok := other.Sel[t]
		if !ok {
			continue
		}
		before := dOld > 0 && refTypeDiffers(d.Stats, other.Stats, t, dOld, dj, x)
		after := dNew > 0 && refTypeDiffers(d.Stats, other.Stats, t, dNew, dj, x)
		if after && !before {
			delta++
		} else if before && !after {
			delta--
		}
	}
	return delta
}

// refImproveOnce applies first-improving single-swap moves to result i
// until none exists. Returns whether anything changed.
func refImproveOnce(dfss []*DFS, i int, opts Options) bool {
	d := dfss[i]
	changed := false
	for {
		applied := false

		// Pure grows (when under budget): adding a feature.
		if d.Sel.Size() < opts.SizeBound {
			for _, g := range growMoves(d) {
				if refTypeDelta(dfss, i, g.t, d.Sel[g.t], g.depth, opts.Threshold) > 0 {
					applyMove(d.Sel, g)
					applied = true
					break
				}
			}
		}

		// Swaps (changing a feature): a shrink paired with a grow.
		// Deltas add because the two moves touch distinct types.
		if !applied {
		swaps:
			for _, s := range shrinkMoves(d) {
				sDelta := refTypeDelta(dfss, i, s.t, d.Sel[s.t], s.depth, opts.Threshold)
				sPrev, sHad := d.Sel[s.t]
				applyMove(d.Sel, s) // grow moves are relative to the shrunk state
				for _, g := range growMoves(d) {
					if g.t == s.t {
						continue // same-type grow is just the inverse
					}
					if sDelta+refTypeDelta(dfss, i, g.t, d.Sel[g.t], g.depth, opts.Threshold) > 0 {
						applyMove(d.Sel, g)
						applied = true
						break swaps
					}
				}
				restore(d.Sel, s.t, sPrev, sHad)
			}
		}

		if !applied {
			return changed
		}
		changed = true
	}
}

func restore(sel Selection, t feature.Type, prev int, had bool) {
	if had {
		sel[t] = prev
	} else {
		delete(sel, t)
	}
}

// refMultiSwap generates DFSs with the paper's multi-swap method:
// block-coordinate ascent where each step replaces one result's entire
// selection with the *optimal* valid selection given the other DFSs,
// computed exactly by a nested dynamic program (per-entity prefix DP
// combined by a knapsack over entities). At the fixpoint no change of
// any number of features in any single DFS can increase the total DoD
// — multi-swap optimality.
func refMultiSwap(stats []*feature.Stats, opts Options) []*DFS {
	opts = opts.normalized()
	dfss := newDFSs(stats)
	for _, d := range dfss {
		pad(d, opts.SizeBound) // same valid starting summary as refSingleSwap
	}
	refMultiSwapAscend(dfss, opts)
	if opts.Pad {
		for _, d := range dfss {
			pad(d, opts.SizeBound)
		}
	}
	return dfss
}

// refMultiSwapAscend runs the block-coordinate ascent to its fixpoint.
// It is inherently sequential across results: each step conditions on
// every other result's current selection.
func refMultiSwapAscend(dfss []*DFS, opts Options) {
	rounds := 0
	for {
		improved := false
		for i := range dfss {
			base := refResultDoD(dfss, i, opts.Threshold)
			cand := refOptimalSelection(dfss, i, opts)
			old := dfss[i].Sel
			dfss[i].Sel = cand
			if refResultDoD(dfss, i, opts.Threshold) > base {
				improved = true
			} else {
				dfss[i].Sel = old
			}
		}
		rounds++
		if !improved || (opts.MaxRounds > 0 && rounds >= opts.MaxRounds) {
			break
		}
	}
}

// refOptimalSelection computes, exactly, a valid selection for result i
// maximizing Σ_j DoD(D_i, D_j) with the other selections fixed,
// subject to |D_i| ≤ L. Among equal-gain selections it prefers smaller
// ones and then pads with the most significant features, keeping the
// result a faithful summary.
func refOptimalSelection(dfss []*DFS, i int, opts Options) Selection {
	d := dfss[i]
	L := opts.SizeBound

	// Per-entity best-gain-at-cost curves.
	entities := d.Stats.Entities()
	curves := make([][]int, len(entities))    // curves[e][c] = max gain with exactly c features in entity e
	choices := make([][][]int, len(entities)) // choices[e][c] = depth per type for that optimum (nil if infeasible)
	for ei, e := range entities {
		curves[ei], choices[ei] = refEntityCurve(dfss, i, e, L, opts.Threshold)
	}

	// Knapsack across entities: dp[c] = best total gain with exactly c
	// features; parent pointers reconstruct the per-entity allocation.
	const neg = -1 << 30
	dp := make([]int, L+1)
	for c := 1; c <= L; c++ {
		dp[c] = neg
	}
	parent := make([][]int, len(entities)) // parent[e][c] = features allocated to entity e at state c
	for ei := range entities {
		parent[ei] = make([]int, L+1)
		next := make([]int, L+1)
		for c := range next {
			next[c] = neg
		}
		for c := 0; c <= L; c++ {
			if dp[c] == neg {
				continue
			}
			for alloc := 0; alloc+c <= L && alloc < len(curves[ei]); alloc++ {
				if choices[ei][alloc] == nil && alloc != 0 {
					continue
				}
				if g := dp[c] + curves[ei][alloc]; g > next[c+alloc] {
					next[c+alloc] = g
					parent[ei][c+alloc] = alloc
				}
			}
		}
		dp = next
	}

	// Best gain at the smallest cost.
	bestC, bestG := 0, 0
	for c := 0; c <= L; c++ {
		if dp[c] != neg && dp[c] > bestG {
			bestG, bestC = dp[c], c
		}
	}

	sel := make(Selection)
	c := bestC
	for ei := len(entities) - 1; ei >= 0; ei-- {
		alloc := parent[ei][c]
		if alloc > 0 {
			order := d.Stats.TypesOf(entities[ei])
			for ti, depth := range choices[ei][alloc] {
				if depth > 0 {
					sel[order[ti]] = depth
				}
			}
		}
		c -= alloc
	}

	// Fill leftover budget with significance padding (never lowers DoD).
	cand := &DFS{Stats: d.Stats, Sel: sel}
	pad(cand, L)
	return cand.Sel
}

// refEntityCurve computes, for entity e of result i, the maximum
// differentiation gain achievable with exactly c features (c in
// 0..maxCost), honoring validity: the selected types are a prefix of
// the significance order and each selected type takes a prefix of its
// values (depth >= 1). It also returns, per cost, the depth vector
// over the type order realizing the optimum (nil when c is
// infeasible).
func refEntityCurve(dfss []*DFS, i int, e string, maxCost int, x float64) ([]int, [][]int) {
	d := dfss[i]
	order := d.Stats.TypesOf(e)

	// gain[t][depth] = number of other results differentiated by type
	// order[t] when result i shows its top-depth values.
	gain := make([][]int, len(order))
	for ti, t := range order {
		nvals := len(d.Stats.ValuesOf(t))
		gain[ti] = make([]int, nvals+1)
		for depth := 1; depth <= nvals; depth++ {
			g := 0
			for j, other := range dfss {
				if j == i {
					continue
				}
				dj, ok := other.Sel[t]
				if !ok {
					continue
				}
				if refTypeDiffers(d.Stats, other.Stats, t, depth, dj, x) {
					g++
				}
			}
			gain[ti][depth] = g
		}
	}

	const neg = -1 << 30
	// dp[k][c] = max gain selecting exactly the first k types with
	// total cost c. depthAt[k][c] = depth of type k-1 in that optimum.
	dp := make([][]int, len(order)+1)
	depthAt := make([][]int, len(order)+1)
	for k := range dp {
		dp[k] = make([]int, maxCost+1)
		depthAt[k] = make([]int, maxCost+1)
		for c := range dp[k] {
			dp[k][c] = neg
		}
	}
	dp[0][0] = 0
	for k := 1; k <= len(order); k++ {
		nvals := len(d.Stats.ValuesOf(order[k-1]))
		for c := 0; c <= maxCost; c++ {
			for depth := 1; depth <= nvals && depth <= c; depth++ {
				if dp[k-1][c-depth] == neg {
					continue
				}
				if g := dp[k-1][c-depth] + gain[k-1][depth]; g > dp[k][c] {
					dp[k][c] = g
					depthAt[k][c] = depth
				}
			}
		}
	}

	curve := make([]int, maxCost+1)
	choice := make([][]int, maxCost+1)
	curve[0] = 0
	choice[0] = []int{} // empty prefix: feasible, no types
	for c := 1; c <= maxCost; c++ {
		bestK := -1
		best := neg
		for k := 1; k <= len(order); k++ {
			if dp[k][c] > best {
				best = dp[k][c]
				bestK = k
			}
		}
		if bestK < 0 || best == neg {
			curve[c] = neg
			choice[c] = nil
			continue
		}
		curve[c] = best
		depths := make([]int, len(order))
		cc := c
		for k := bestK; k >= 1; k-- {
			dep := depthAt[k][cc]
			depths[k-1] = dep
			cc -= dep
		}
		choice[c] = depths
	}
	return curve, choice
}

// refGreedyGlobal implements the "better algorithms" future-work
// direction the paper closes with: instead of per-result local search,
// it grows all DFSs together, repeatedly applying the single grow move
// — across every result — with the highest marginal DoD gain, breaking
// ties toward the most frequent feature (the padding order). Budgets
// fill one feature at a time, so coordination emerges naturally: once
// one result opens a type, the type's gain becomes positive for every
// other result that carries it.
//
// For monotone objectives this greedy is the standard approximation
// scaffold; the DoD objective is monotone under selection growth but
// not submodular across results (a type's gain *rises* when a partner
// selects it), so no classical ratio applies — empirically it lands
// between refTopK and refSingleSwap. It runs in O(L·n · moves·n) time with
// no swap phase, making it the cheapest coordinated method.
func refGreedyGlobal(stats []*feature.Stats, opts Options) []*DFS {
	opts = opts.normalized()
	dfss := newDFSs(stats)
	for {
		type candidate struct {
			i     int
			m     move
			gain  int
			score padScore
		}
		best := candidate{i: -1}
		for i, d := range dfss {
			if d.Sel.Size() >= opts.SizeBound {
				continue
			}
			for _, m := range growMoves(d) {
				g := refTypeDelta(dfss, i, m.t, d.Sel[m.t], m.depth, opts.Threshold)
				sc := scoreMove(d.Stats, m)
				if best.i == -1 || g > best.gain ||
					(g == best.gain && sc.better(best.score)) {
					best = candidate{i: i, m: m, gain: g, score: sc}
				}
			}
		}
		if best.i == -1 {
			break // every DFS is full (or has nothing left to add)
		}
		applyMove(dfss[best.i].Sel, best.m)
	}
	return dfss
}

// refWeightedGreedy grows all DFSs together like refGreedyGlobal but scores
// moves by weighted marginal gain, and weights the frequency tie-break
// too — so interesting types win both when gains compete and during
// the zero-gain bootstrap picks that seed coordination. With
// UniformInterest it reduces to refGreedyGlobal.
func refWeightedGreedy(stats []*feature.Stats, opts Options, interest Interestingness) []*DFS {
	opts = opts.normalized()
	if interest == nil {
		interest = UniformInterest
	}
	dfss := newDFSs(stats)
	for {
		type candidate struct {
			i     int
			m     move
			gain  float64
			score padScore
		}
		best := candidate{i: -1}
		for i, d := range dfss {
			if d.Sel.Size() >= opts.SizeBound {
				continue
			}
			for _, m := range growMoves(d) {
				w := interest(m.t)
				g := float64(refTypeDelta(dfss, i, m.t, d.Sel[m.t], m.depth, opts.Threshold)) * w
				sc := scoreMove(d.Stats, m)
				sc.rel *= w
				if best.i == -1 || g > best.gain ||
					(g == best.gain && sc.better(best.score)) {
					best = candidate{i: i, m: m, gain: g, score: sc}
				}
			}
		}
		if best.i == -1 {
			break
		}
		applyMove(dfss[best.i].Sel, best.m)
	}
	return dfss
}

// refAnneal explores the joint DFS space with simulated annealing —
// a third entry in the paper's "better algorithms" future-work
// direction, able (unlike both swap methods) to accept temporarily
// worse states and cross DoD plateaus. Proposals are single grow or
// shrink moves on a random result (shrinks being acceptable uphill or
// downhill is what lets it escape); temperature decays
// geometrically to zero so the walk ends in hill-climbing, and the
// best state ever visited is returned. Given a large step budget it
// can climb past the swap methods' local optima
// (BenchmarkAblationAnneal measures ~+35% DoD on one benchmark query
// at ~20x the cost), which makes it an upper-bound probe on how much
// the cheap local searches leave behind — the gap the paper's
// NP-hardness result predicts must exist.
func refAnneal(stats []*feature.Stats, opts AnnealOptions) []*DFS {
	o := opts.Options.normalized()
	steps := opts.Steps
	if steps <= 0 {
		steps = 2000
	}
	temp := opts.StartTemp
	if temp <= 0 {
		temp = 2
	}
	cool := math.Pow(0.01/temp, 1/float64(steps)) // reach 0.01 at the end
	rng := rand.New(rand.NewSource(opts.Seed))

	dfss := newDFSs(stats)
	for _, d := range dfss {
		pad(d, o.SizeBound)
	}
	cur := refTotalDoD(dfss, o.Threshold)
	best := cur
	bestSel := snapshot(dfss)

	for step := 0; step < steps; step++ {
		i := rng.Intn(len(dfss))
		d := dfss[i]
		undo, delta := refProposeMove(dfss, i, d, o, rng)
		if undo == nil {
			continue
		}
		accept := delta >= 0
		if !accept {
			accept = rng.Float64() < math.Exp(float64(delta)/temp)
		}
		if !accept {
			undo()
		} else {
			cur += delta
			if cur > best {
				best = cur
				bestSel = snapshot(dfss)
			}
		}
		temp *= cool
	}
	for i := range dfss {
		dfss[i].Sel = bestSel[i]
	}
	return dfss
}

// refProposeMove mutates result i with a random valid move and returns an
// undo closure plus the DoD delta, or (nil, 0) when no move applies.
func refProposeMove(dfss []*DFS, i int, d *DFS, o Options, rng *rand.Rand) (func(), int) {
	grows := growMoves(d)
	if d.Sel.Size() >= o.SizeBound {
		grows = nil
	}
	shrinks := shrinkMoves(d)
	total := len(grows) + len(shrinks)
	if total == 0 {
		return nil, 0
	}
	pick := rng.Intn(total)
	var m move
	if pick < len(grows) {
		m = grows[pick]
	} else {
		m = shrinks[pick-len(grows)]
	}
	prev, had := d.Sel[m.t]
	delta := refTypeDelta(dfss, i, m.t, prev, m.depth, o.Threshold)
	applyMove(d.Sel, m)
	return func() { restore(d.Sel, m.t, prev, had) }, delta
}

func snapshot(dfss []*DFS) []Selection {
	out := make([]Selection, len(dfss))
	for i, d := range dfss {
		out[i] = d.Sel.Clone()
	}
	return out
}

// refTopK generates baseline DFSs that ignore differentiation entirely:
// each result independently takes its most significant valid features
// up to the size bound. This mirrors what frequency-biased snippet
// generators (eXtract, Figure 1 of the paper) show for a single
// result, and is the comparison point for the Figure 1 → Figure 2
// quality gap.
func refTopK(stats []*feature.Stats, opts Options) []*DFS {
	opts = opts.normalized()
	dfss := newDFSs(stats)
	for _, d := range dfss {
		pad(d, opts.SizeBound)
	}
	return dfss
}

// refContrastInterest is ContrastInterest over the Stats accessors.
func refContrastInterest(stats []*feature.Stats) Interestingness {
	weights := make(map[feature.Type]float64)
	for _, s := range stats {
		for _, t := range s.AllTypes() {
			if _, done := weights[t]; done {
				continue
			}
			lo, hi := 1.0, 0.0
			present := 0
			for _, o := range stats {
				if !o.HasType(t) {
					continue
				}
				present++
				top := o.ValuesOf(t)[0]
				rel := o.Rel(t, top.Value)
				if rel < lo {
					lo = rel
				}
				if rel > hi {
					hi = rel
				}
			}
			if present < 2 {
				weights[t] = 1
				continue
			}
			weights[t] = 1 + (hi - lo) // spread in [0,1] adds up to +1
		}
	}
	return func(t feature.Type) float64 {
		if w, ok := weights[t]; ok {
			return w
		}
		return 1
	}
}
