package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/feature"
)

// richStatsSet builds n results over two entities with group sizes 4
// and 8, drawing counts from a small set so that absent values (count
// 0), equal frequencies, and relative differences exactly at x = 0.25
// (4 vs 5 of 8, 0.5 vs 0.625) and x = 0.5 (2 vs 3 of 4) all occur.
func richStatsSet(r *rand.Rand, n int) []*feature.Stats {
	ents := []struct {
		name  string
		group int
		attrs []string
	}{
		{"review", 8, []string{"pro", "con", "use"}},
		{"spec", 4, []string{"size", "color"}},
	}
	counts := []int{0, 0, 1, 2, 3, 4, 4, 5, 8}
	vals := []string{"v1", "v2", "v3", "v4"}
	out := make([]*feature.Stats, n)
	for i := range out {
		groups := make(map[string]int)
		fc := make(map[feature.Feature]int)
		for _, e := range ents {
			groups[e.name] = e.group
			for _, a := range e.attrs {
				for _, v := range vals {
					fc[feature.Feature{Type: feature.Type{Entity: e.name, Attribute: a}, Value: v}] = counts[r.Intn(len(counts))]
				}
			}
		}
		out[i] = feature.NewStatsFromCounts(fmt.Sprintf("r%d", i), groups, fc)
	}
	return out
}

// TestFirstDifferingDepthIdentity checks the kernel's identity against
// the reference predicate: for every pair of results, every shared
// type and every (da, db) up to the value counts, the
// first-differing-depth rule — in the kernel and in PairDoD — agrees
// with refTypeDiffers.
func TestFirstDifferingDepthIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	checked := 0
	for iter := 0; iter < 150; iter++ {
		stats := richStatsSet(r, 3)
		x := []float64{0.1, 0.25, 0.5}[iter%3]
		kn := newKernel(stats, Options{SizeBound: MaxSizeBound, Threshold: x}.normalized())
		for ti, typ := range kn.types {
			kn.column(ti)
			for i, a := range stats {
				for j, b := range stats {
					na, nb := len(a.ValuesOf(typ)), len(b.ValuesOf(typ))
					if i == j || na == 0 || nb == 0 {
						continue
					}
					for da := 1; da <= na; da++ {
						for db := 1; db <= nb; db++ {
							want := refTypeDiffers(a, b, typ, da, db, x)
							if got := kn.differs(ti, i, j, uint8(da), uint8(db)); got != want {
								t.Fatalf("iter %d %s (%d,%d) depths (%d,%d): kernel %v, reference %v", iter, typ, i, j, da, db, got, want)
							}
							pair := PairDoD(&DFS{Stats: a, Sel: Selection{typ: da}}, &DFS{Stats: b, Sel: Selection{typ: db}}, x)
							if got := pair == 1; got != want {
								t.Fatalf("iter %d %s (%d,%d) depths (%d,%d): PairDoD %d, reference %v", iter, typ, i, j, da, db, pair, want)
							}
							checked++
						}
					}
				}
			}
		}
	}
	if checked < 10000 {
		t.Fatalf("only %d cases checked", checked)
	}
}

// sameSelections fails unless got and want select the same depths.
func sameSelections(t *testing.T, label string, got, want []*DFS) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d DFSs, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if !selectionsEqual(got[i].Sel, want[i].Sel) {
			t.Fatalf("%s: DFS %d selects %v, reference %v", label, i, got[i].Sel, want[i].Sel)
		}
	}
}

// TestKernelMatchesReference demands selections identical to the
// map-based reference from every algorithm, on seeded random sets.
func TestKernelMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for iter := 0; iter < 120; iter++ {
		var stats []*feature.Stats
		if iter%2 == 0 {
			stats = richStatsSet(r, 2+r.Intn(5))
		} else {
			stats = randomStatsSet(r, 2+r.Intn(4), 5, 4)
		}
		opts := Options{
			SizeBound: 2 + r.Intn(9),
			Threshold: []float64{0.1, 0.25, 0.5}[r.Intn(3)],
			MaxRounds: []int{0, 0, 1}[r.Intn(3)],
			Pad:       r.Intn(2) == 0,
		}
		label := func(alg string) string { return fmt.Sprintf("iter %d %s %+v", iter, alg, opts) }
		sameSelections(t, label("single-swap"), SingleSwap(stats, opts), refSingleSwap(stats, opts))
		sameSelections(t, label("multi-swap"), MultiSwap(stats, opts), refMultiSwap(stats, opts))
		sameSelections(t, label("parallel single-swap"), GenerateParallel(AlgSingleSwap, stats, opts), refSingleSwap(stats, opts))
		sameSelections(t, label("parallel multi-swap"), GenerateParallel(AlgMultiSwap, stats, opts), refMultiSwap(stats, opts))
		sameSelections(t, label("greedy"), GreedyGlobal(stats, opts), refGreedyGlobal(stats, opts))
		sameSelections(t, label("top-k"), TopK(stats, opts), refTopK(stats, opts))
		interest, refInterest := ContrastInterest(stats), refContrastInterest(stats)
		for _, s := range stats {
			for _, typ := range append(s.AllTypes(), feature.Type{Entity: "absent"}) {
				if got, want := interest(typ), refInterest(typ); got != want {
					t.Fatalf("%s: ContrastInterest(%s) = %v, reference %v", label("interest"), typ, got, want)
				}
			}
		}
		sameSelections(t, label("weighted greedy"), WeightedGreedy(stats, opts, interest), refWeightedGreedy(stats, opts, interest))
		ao := AnnealOptions{Options: opts, Seed: int64(iter), Steps: 300}
		sameSelections(t, label("anneal"), Anneal(stats, ao), refAnneal(stats, ao))

		for _, d := range [][]*DFS{SingleSwap(stats, opts), MultiSwap(stats, opts), Random(stats, opts, r)} {
			if got, want := TotalDoD(d, opts.Threshold), refTotalDoD(d, opts.Threshold); got != want {
				t.Fatalf("%s: TotalDoD %d, reference %d", label("dod"), got, want)
			}
			// Summed in map order, so equal only up to rounding.
			if got, want := WeightedDoD(d, opts.Threshold, interest), refWeightedDoD(d, opts.Threshold, interest); math.Abs(got-want) > 1e-9 {
				t.Fatalf("%s: WeightedDoD %v, reference %v", label("dod"), got, want)
			}
		}
	}
}

// refWeightedDoD is WeightedDoD under the reference predicate.
func refWeightedDoD(dfss []*DFS, x float64, interest Interestingness) float64 {
	total := 0.0
	for i := 0; i < len(dfss); i++ {
		for j := i + 1; j < len(dfss); j++ {
			for t, da := range dfss[i].Sel {
				if db, ok := dfss[j].Sel[t]; ok && refTypeDiffers(dfss[i].Stats, dfss[j].Stats, t, da, db, x) {
					total += interest(t)
				}
			}
		}
	}
	return total
}

// TestKernelMovesMatchReference: on random valid selections, the
// kernel offers the reference's grow and shrink moves in the same
// order, and each yields a valid selection.
func TestKernelMovesMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for iter := 0; iter < 200; iter++ {
		stats := richStatsSet(r, 2)
		opts := Options{SizeBound: 6}.normalized()
		dfss := Random(stats, opts, r)
		kn := newKernel(stats, opts)
		for i, d := range dfss {
			for typ, depth := range d.Sel {
				kn.apply(i, denseMove{t: int32(slices.Index(kn.types, typ)), depth: uint8(depth)})
			}
			if kn.size[i] < opts.SizeBound { // no grow applies at the bound
				kn.moves = kn.growMoves(i, kn.row(i), kn.moves)
				checkMoves(t, kn, i, "grow", kn.moves, growMoves(d))
			}
			kn.moves2 = kn.shrinkMoves(i, kn.moves2)
			checkMoves(t, kn, i, "shrink", kn.moves2, shrinkMoves(d))
		}
	}
}

func checkMoves(t *testing.T, kn *kernel, i int, kind string, got []denseMove, want []move) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s moves: %d, reference %d", kind, len(got), len(want))
	}
	for n, m := range got {
		if kn.types[m.t] != want[n].t || int(m.depth) != want[n].depth {
			t.Fatalf("%s move %d: %s@%d, reference %s@%d", kind, n, kn.types[m.t], m.depth, want[n].t, want[n].depth)
		}
		prev := kn.row(i)[m.t]
		kn.apply(i, m)
		d := &DFS{Stats: kn.stats[i], Sel: kn.selection(i, kn.row(i))}
		if err := d.Validate(0); err != nil {
			t.Fatalf("%s move %d broke validity: %v", kind, n, err)
		}
		kn.apply(i, denseMove{t: m.t, depth: prev})
	}
}

// TestMultiSwapOptimalityAtFixpoint makes the paper's multi-swap
// optimality claim executable: at MultiSwap's fixpoint, no valid
// selection of any one result — every one enumerated, the others held
// fixed — raises total DoD.
func TestMultiSwapOptimalityAtFixpoint(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	for iter := 0; iter < 40; iter++ {
		stats := randomStatsSet(r, 3, 3, 3)
		opts := Options{SizeBound: 4, Threshold: 0.1}
		dfss := MultiSwap(stats, opts)
		base := TotalDoD(dfss, opts.Threshold)
		for i, d := range dfss {
			sels := enumerateSelections(d.Stats, opts.SizeBound)
			if len(sels) > MaxExhaustiveSelections {
				t.Fatalf("iter %d: %d selections to enumerate", iter, len(sels))
			}
			kept := d.Sel
			for _, sel := range sels {
				d.Sel = sel
				if got := TotalDoD(dfss, opts.Threshold); got > base {
					t.Fatalf("iter %d: result %d selection %v raises DoD %d -> %d at fixpoint", iter, i, sel, base, got)
				}
			}
			d.Sel = kept
		}
	}
}

func BenchmarkKernelSingleSwapRich(b *testing.B) {
	stats := richStatsSet(rand.New(rand.NewSource(45)), 20)
	opts := Options{SizeBound: 10, Threshold: 0.1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = SingleSwap(stats, opts)
	}
}

func BenchmarkKernelMultiSwapRich(b *testing.B) {
	stats := richStatsSet(rand.New(rand.NewSource(45)), 20)
	opts := Options{SizeBound: 10, Threshold: 0.1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = MultiSwap(stats, opts)
	}
}

// FuzzTotalDoDMatchesReference draws rich statistics and random valid
// selections from the fuzzer's seed and demands that TotalDoD and
// PairDoD equal the map-based reference evaluators.
func FuzzTotalDoDMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(4), uint8(0))
	f.Add(int64(2), uint8(5), uint8(10), uint8(1))
	f.Add(int64(3), uint8(8), uint8(20), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n, bound, xi uint8) {
		r := rand.New(rand.NewSource(seed))
		stats := richStatsSet(r, 2+int(n)%9)
		x := []float64{0.1, 0.25, 0.5, 0.05, 1}[int(xi)%5]
		dfss := Random(stats, Options{SizeBound: 1 + int(bound)%24, Threshold: x}, r)
		if got, want := TotalDoD(dfss, x), refTotalDoD(dfss, x); got != want {
			t.Fatalf("TotalDoD %d, reference %d", got, want)
		}
		for i, a := range dfss {
			for _, b := range dfss[i+1:] {
				if got, want := PairDoD(a, b, x), refPairDoD(a, b, x); got != want {
					t.Fatalf("PairDoD %d, reference %d", got, want)
				}
			}
		}
	})
}

// TestDenseKernelTypeUnion: the merged type union is the sorted set of
// every result's types, each exactly once, and every cell points at its
// own result's column of that type.
func TestDenseKernelTypeUnion(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	for iter := 0; iter < 100; iter++ {
		stats := randomStatsSet(r, 1+r.Intn(6), 1+r.Intn(5), 3)
		if iter%2 == 0 {
			stats = richStatsSet(r, 1+r.Intn(6))
		}
		var want []feature.Type
		for _, s := range stats {
			want = append(want, s.AllTypes()...)
		}
		slices.SortFunc(want, feature.Type.Compare)
		want = slices.Compact(want)
		kn := newKernel(stats, Options{}.normalized())
		if !slices.Equal(kn.types, want) {
			t.Fatalf("iter %d: union %v, want %v", iter, kn.types, want)
		}
		for i, s := range stats {
			for ti, typ := range kn.types {
				if col := kn.cols[i*kn.nt+ti]; col != s.Column(typ) {
					t.Fatalf("iter %d: result %d type %s: cell %p, column %p", iter, i, typ, col, s.Column(typ))
				}
			}
		}
	}
}
