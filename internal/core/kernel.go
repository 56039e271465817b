package core

import "repro/internal/feature"

// kernel is the dense form of one generation call. Every algorithm
// numbers the union of the results' feature types in feature.Type.Less
// order (a merge of their type-sorted columns), points each (result,
// type ID) cell at the result's feature.Column, keeps each result's
// working selection as a depth byte per type ID, and converts back to
// Selection maps only when it returns.
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
	cols []*feature.Column // the result's column of the type; nil = absent
	nv   []uint8           // usable depth: min(#values, SizeBound)

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

// newKernel lays stats out under normalized opts. The type union is
// the successive merge of the results' type-sorted columns, and each
// result's columns take their IDs in one walk along it, so no type is
// sorted, searched or hashed. Selections start empty.
func newKernel(stats []*feature.Stats, opts Options) *kernel {
	kn := &kernel{stats: stats, opts: opts, k: len(stats)}
	n := 0
	for _, s := range stats {
		n += s.TypeCount()
	}
	var next []feature.Type
	for _, s := range stats {
		next = mergeTypes(next[:0], kn.types, s.Columns())
		kn.types, next = next, kn.types
	}
	kn.nt = len(kn.types)

	cells := kn.k * kn.nt
	kn.cols = make([]*feature.Column, cells)
	kn.nv = make([]uint8, cells)
	kn.order = make([]int32, 0, n)
	kn.spans = make([][]span, kn.k)
	kn.whole = make([]span, kn.k)
	kn.done = make([]bool, kn.nt)
	kn.sel = make([]uint8, cells)
	kn.size = make([]int, kn.k)
	var ids []int32 // per column of the current result: its type ID
	for i, s := range stats {
		cols := s.Columns()
		ids = grown(ids, len(cols))
		t := 0
		for ci := range cols {
			col := &cols[ci]
			for kn.types[t] != col.Type {
				t++
			}
			ids[ci] = int32(t)
			kn.cols[i*kn.nt+t] = col
			kn.nv[i*kn.nt+t] = uint8(min(len(col.Values()), opts.SizeBound))
		}
		order, bounds := s.Order()
		start := len(kn.order)
		kn.spans[i] = make([]span, len(bounds)-1)
		for e := range kn.spans[i] {
			lo := len(kn.order)
			for _, ci := range order[bounds[e]:bounds[e+1]] {
				kn.order = append(kn.order, ids[ci])
			}
			kn.spans[i][e] = span{lo, len(kn.order)}
		}
		kn.whole[i] = span{start, len(kn.order)}
	}
	return kn
}

// mergeTypes appends to dst the sorted union of the sorted types a and
// the types of the type-sorted columns b.
func mergeTypes(dst, a []feature.Type, b []feature.Column) []feature.Type {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := a[i].Compare(b[j].Type); {
		case c < 0:
			dst = append(dst, a[i])
			i++
		case c > 0:
			dst = append(dst, b[j].Type)
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	for ; j < len(b); j++ {
		dst = append(dst, b[j].Type)
	}
	return dst
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
		a := kn.cols[ci]
		avals, group := a.Values()[:kn.nv[ci]], float64(a.Group())
		fi := kn.f[(t*kn.k+i)*kn.k:]
		for j := 0; j < kn.k; j++ {
			cj := j*kn.nt + t
			if j == i || kn.nv[cj] == 0 {
				continue
			}
			fi[j] = uint8(firstDiffer(avals, group, kn.cols[cj], kn.opts.Threshold))
		}
	}
}

// firstDiffer returns the 1-based position of the first value in avals
// (one side's shown values of a type, group its entity's instance
// count) whose relative frequency differs by more than x from its
// frequency in the other side's column b, or 0 when none does. It is
// the one differentiation rule: two DFSs differ on a type exactly when
// either side's first differing depth is within its shown depth.
func firstDiffer(avals []feature.ValueCount, group float64, b *feature.Column, x float64) int {
	bgroup := float64(b.Group())
	for d, vc := range avals {
		if relDiffer(float64(vc.Count)/group, float64(b.Count(vc.Value))/bgroup, x) {
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
	col := kn.cols[i*kn.nt+int(m.t)]
	count := col.Values()[m.depth-1].Count
	return padScore{rel: float64(count) / float64(col.Group()), count: count, total: col.Total()}
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
