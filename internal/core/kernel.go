package core

import (
	"sort"

	"repro/internal/feature"
)

// kernel is the dense form of one generation call. Every algorithm
// interns the union of the results' feature types to IDs ordered by
// feature.Type.Less, keeps each result's working selection as a depth
// byte per type ID, and converts back to Selection maps only when it
// returns.
//
// Whether results i and j differ on type t depends only on the values
// shown, and a value v differs by relDiffer(rel_i(v), rel_j(v), x)
// whichever side shows it. So with f[i][j][t] the 1-based depth of the
// first value in i's list that differs against j (0 = none),
//
//	differs(i, j, t, da, db) = (f_ij > 0 && da >= f_ij) || (f_ji > 0 && db >= f_ji)
//
// and every move delta is a handful of byte compares. f is filled one
// type at a time, the first time a move touches the type.
type kernel struct {
	stats []*feature.Stats
	opts  Options
	k, nt int
	types []feature.Type // type ID -> type, in Type.Less order

	// Per (result i, type ID t), at index i*nt+t.
	vals  [][]feature.ValueCount // values in occurrence order; nil = absent
	occ   []map[string]int       // value -> occurrences
	nv    []uint8                // usable depth: min(len(vals), SizeBound)
	group []float64              // instance count of the type's entity
	total []int                  // type total (significance)

	// Result i's types entity by entity, each entity's in significance
	// order: entity e spans order[spans[i][e].lo:spans[i][e].hi].
	order []int32
	spans [][]span
	whole []span // per result: its whole span of order

	f    []uint8 // at (t*k+i)*k+j; allocated with the first column
	done []bool  // per type: f column filled

	sel  []uint8 // working selections, at i*nt+t; 0 = unselected
	size []int   // per result: Σ depths of its selection

	moves, moves2 []denseMove // scratch for growMoves / shrinkMoves
	dp            dpScratch   // multi-swap scratch
}

type span struct{ lo, hi int }

// denseMove sets type t of one result to depth (0 = unselect).
type denseMove struct {
	t     int32
	depth uint8
}

// newKernel interns stats under normalized opts. Selections start empty.
func newKernel(stats []*feature.Stats, opts Options) *kernel {
	kn := &kernel{stats: stats, opts: opts, k: len(stats)}
	n := 0
	for _, s := range stats {
		n += s.TypeCount()
	}
	all := make([]feature.Type, 0, n)
	for _, s := range stats {
		all = append(all, s.AllTypes()...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].Less(all[b]) })
	for _, t := range all {
		if len(kn.types) == 0 || kn.types[len(kn.types)-1] != t {
			kn.types = append(kn.types, t)
		}
	}
	kn.nt = len(kn.types)

	cells := kn.k * kn.nt
	kn.vals = make([][]feature.ValueCount, cells)
	kn.occ = make([]map[string]int, cells)
	kn.nv = make([]uint8, cells)
	kn.group = make([]float64, cells)
	kn.total = make([]int, cells)
	kn.order = make([]int32, 0, n)
	kn.spans = make([][]span, kn.k)
	kn.whole = make([]span, kn.k)
	kn.done = make([]bool, kn.nt)
	kn.sel = make([]uint8, cells)
	kn.size = make([]int, kn.k)
	for i, s := range stats {
		ents := s.Entities()
		start := len(kn.order)
		kn.spans[i] = make([]span, len(ents))
		for e, ent := range ents {
			g := float64(s.GroupCount(ent))
			lo := len(kn.order)
			for _, t := range s.TypesOf(ent) {
				id := kn.id(t)
				kn.order = append(kn.order, int32(id))
				c := i*kn.nt + id
				vals := s.ValuesOf(t)
				kn.vals[c] = vals
				kn.occ[c] = s.Counts(t)
				kn.nv[c] = uint8(min(len(vals), opts.SizeBound))
				kn.group[c] = g
				kn.total[c] = s.TypeTotal(t)
			}
			kn.spans[i][e] = span{lo, len(kn.order)}
		}
		kn.whole[i] = span{start, len(kn.order)}
	}
	return kn
}

// id returns the dense ID of a type present in some result.
func (kn *kernel) id(t feature.Type) int {
	return sort.Search(kn.nt, func(i int) bool { return !kn.types[i].Less(t) })
}

// row returns result i's working selection.
func (kn *kernel) row(i int) []uint8 { return kn.sel[i*kn.nt : (i+1)*kn.nt] }

// column fills f for type t over every ordered pair carrying it.
func (kn *kernel) column(t int) {
	if kn.done[t] {
		return
	}
	kn.done[t] = true
	if kn.f == nil {
		kn.f = make([]uint8, kn.k*kn.k*kn.nt)
	}
	for i := 0; i < kn.k; i++ {
		ci := i*kn.nt + t
		if kn.nv[ci] == 0 {
			continue
		}
		fi := kn.f[(t*kn.k+i)*kn.k:]
		for j := 0; j < kn.k; j++ {
			cj := j*kn.nt + t
			if j == i || kn.nv[cj] == 0 {
				continue
			}
			fi[j] = uint8(firstDiffer(kn.vals[ci][:kn.nv[ci]], kn.group[ci], kn.occ[cj], kn.group[cj], kn.opts.Threshold))
		}
	}
}

// firstDiffer returns the 1-based position of the first value in avals
// (one side's shown values of a type, group its entity's instance
// count) whose relative frequency differs by more than x from the
// other side's (bocc its value counts, bgroup its instance count), or
// 0 when none does. It is the one differentiation rule: two DFSs
// differ on a type exactly when either side's first differing depth is
// within its shown depth.
func firstDiffer(avals []feature.ValueCount, group float64, bocc map[string]int, bgroup float64, x float64) int {
	for d, vc := range avals {
		if relDiffer(float64(vc.Count)/group, float64(bocc[vc.Value])/bgroup, x) {
			return d + 1
		}
	}
	return 0
}

// differs applies the first-differing-depth rule to results i and j at
// depths di and dj (both > 0) of type t, whose column must be filled.
func (kn *kernel) differs(t, i, j int, di, dj uint8) bool {
	base := t * kn.k
	fij, fji := kn.f[(base+i)*kn.k+j], kn.f[(base+j)*kn.k+i]
	return (fij > 0 && di >= fij) || (fji > 0 && dj >= fji)
}

// typeDelta returns the change in Σ_j DoD(D_i, D_j) caused by moving
// type t of result i from depth dOld to dNew (0 = unselected).
func (kn *kernel) typeDelta(i, t int, dOld, dNew uint8) int {
	kn.column(t)
	base := t * kn.k
	fi := kn.f[(base+i)*kn.k : (base+i+1)*kn.k]
	delta := 0
	for j, fij := range fi {
		dj := kn.sel[j*kn.nt+t]
		if j == i || dj == 0 {
			continue
		}
		fji := kn.f[(base+j)*kn.k+i]
		other := fji > 0 && dj >= fji
		before := dOld > 0 && (other || (fij > 0 && dOld >= fij))
		after := dNew > 0 && (other || (fij > 0 && dNew >= fij))
		if after && !before {
			delta++
		} else if before && !after {
			delta--
		}
	}
	return delta
}

// resultDoD returns Σ_j PairDoD(D_i, D_j) for j ≠ i, with result i
// showing row instead of its working selection.
func (kn *kernel) resultDoD(i int, row []uint8) int {
	sum := 0
	for _, t32 := range kn.typesOf(i) {
		t := int(t32)
		di := row[t]
		if di == 0 {
			continue
		}
		kn.column(t)
		for j := 0; j < kn.k; j++ {
			if dj := kn.sel[j*kn.nt+t]; j != i && dj > 0 && kn.differs(t, i, j, di, dj) {
				sum++
			}
		}
	}
	return sum
}

// typesOf returns the type IDs result i carries, entity by entity.
func (kn *kernel) typesOf(i int) []int32 { return kn.order[kn.whole[i].lo:kn.whole[i].hi] }

// totalDoD is TotalDoD of the working selections.
func (kn *kernel) totalDoD() int {
	sum := 0
	for i := 0; i < kn.k; i++ {
		sum += kn.resultDoD(i, kn.row(i))
	}
	return sum / 2
}

// prefix returns how many of entity span sp's types row selects (they
// always form a prefix of the significance order).
func (kn *kernel) prefix(row []uint8, sp span) int {
	n := 0
	for _, t := range kn.order[sp.lo:sp.hi] {
		if row[t] == 0 {
			break
		}
		n++
	}
	return n
}

// growMoves appends to buf the grow moves of result i showing row:
// deepening a selected type by one value or opening the next type of
// an entity at depth 1, entity by entity in significance order.
func (kn *kernel) growMoves(i int, row []uint8, buf []denseMove) []denseMove {
	buf = buf[:0]
	for _, sp := range kn.spans[i] {
		p := kn.prefix(row, sp)
		for _, t := range kn.order[sp.lo : sp.lo+p] {
			if d := row[t]; d < kn.nv[i*kn.nt+int(t)] {
				buf = append(buf, denseMove{t: t, depth: d + 1})
			}
		}
		if sp.lo+p < sp.hi {
			buf = append(buf, denseMove{t: kn.order[sp.lo+p], depth: 1})
		}
	}
	return buf
}

// shrinkMoves appends to buf the shrink moves of result i: dropping
// the last value of a type shown at depth >= 2, or unselecting the
// last type of an entity's prefix.
func (kn *kernel) shrinkMoves(i int, buf []denseMove) []denseMove {
	buf = buf[:0]
	row := kn.row(i)
	for _, sp := range kn.spans[i] {
		p := kn.prefix(row, sp)
		for n, t := range kn.order[sp.lo : sp.lo+p] {
			if d := row[t]; d >= 2 {
				buf = append(buf, denseMove{t: t, depth: d - 1})
			} else if n == p-1 {
				buf = append(buf, denseMove{t: t, depth: 0})
			}
		}
	}
	return buf
}

// apply makes move m on result i's working selection.
func (kn *kernel) apply(i int, m denseMove) {
	c := i*kn.nt + int(m.t)
	kn.size[i] += int(m.depth) - int(kn.sel[c])
	kn.sel[c] = m.depth
}

// scoreMove ranks a grow move of result i for padding.
func (kn *kernel) scoreMove(i int, m denseMove) padScore {
	c := i*kn.nt + int(m.t)
	count := kn.vals[c][m.depth-1].Count
	return padScore{rel: float64(count) / kn.group[c], count: count, total: kn.total[c]}
}

// betterPadMove orders grow moves within one result by padScore, then
// by type (ID order is Type.Less order) and depth.
func (kn *kernel) betterPadMove(i int, a, b denseMove) bool {
	pa, pb := kn.scoreMove(i, a), kn.scoreMove(i, b)
	if pa.better(pb) {
		return true
	}
	if pb.better(pa) {
		return false
	}
	if a.t != b.t {
		return a.t < b.t
	}
	return a.depth < b.depth
}

// pad fills row (result i's selection, of the given size) up to bound
// with the most *frequent* unselected features (valid growth only) and
// returns the new size. It mirrors how a summary spends space: each
// grow move is scored by the relative frequency of the value it would
// reveal, so a product's singleton attributes (name, rating —
// frequency 1.0 within their entity) surface before a rare
// fourth-ranked pro. This is also the "valid top-fill" starting point
// of both local searches; scoring by value frequency rather than raw
// type totals keeps the initial summaries diverse across entities,
// which matters because a type can only ever differentiate once both
// sides select it.
func (kn *kernel) pad(i int, row []uint8, size, bound int) int {
	var buf [32]denseMove // per call: padAll runs results concurrently
	moves := buf[:0]
	for size < bound {
		moves = kn.growMoves(i, row, moves)
		if len(moves) == 0 {
			break
		}
		best := moves[0]
		for _, m := range moves[1:] {
			if kn.betterPadMove(i, m, best) {
				best = m
			}
		}
		row[best.t] = best.depth
		size++
	}
	return size
}

// padAll pads every working selection to the size bound, spreading
// the results over workers (ForEachParallel's convention).
func (kn *kernel) padAll(workers int) {
	ForEachParallel(kn.k, workers, func(i int) {
		kn.size[i] = kn.pad(i, kn.row(i), kn.size[i], kn.opts.SizeBound)
	})
}

// selection converts a dense row of result i to a Selection map.
func (kn *kernel) selection(i int, row []uint8) Selection {
	n := 0
	for _, t := range kn.typesOf(i) {
		if row[t] > 0 {
			n++
		}
	}
	sel := make(Selection, n)
	for _, t := range kn.typesOf(i) {
		if d := row[t]; d > 0 {
			sel[kn.types[t]] = int(d)
		}
	}
	return sel
}

// dfss returns the working selections as DFSs.
func (kn *kernel) dfss() []*DFS {
	out := make([]*DFS, kn.k)
	for i, s := range kn.stats {
		out[i] = &DFS{Stats: s, Sel: kn.selection(i, kn.row(i))}
	}
	return out
}
