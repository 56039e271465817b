package core

import (
	"math/rand"
	"testing"

	"repro/internal/feature"
)

// mkStats builds synthetic statistics: one "review" entity with the
// given (attribute, value) -> count map and group size.
func mkStats(label string, group int, counts map[[2]string]int) *feature.Stats {
	fc := make(map[feature.Feature]int, len(counts))
	for k, c := range counts {
		fc[feature.Feature{
			Type:  feature.Type{Entity: "review", Attribute: k[0]},
			Value: k[1],
		}] = c
	}
	return feature.NewStatsFromCounts(label, map[string]int{"review": group}, fc)
}

func TestRelDiffer(t *testing.T) {
	cases := []struct {
		a, b, x float64
		want    bool
	}{
		{0.5, 0.5, 0.1, false},
		{0.5, 0.56, 0.1, true},  // 12% of smaller
		{0.5, 0.54, 0.1, false}, // 8%
		{0, 0.3, 0.1, true},     // zero vs positive
		{0, 0, 0.1, false},
		{1.0, 1.2, 0.1, true},
		{0.9, 0.99, 0.1, false}, // exactly 10% is not "more than"
	}
	for _, c := range cases {
		if got := relDiffer(c.a, c.b, c.x); got != c.want {
			t.Errorf("relDiffer(%v,%v,%v) = %v, want %v", c.a, c.b, c.x, got, c.want)
		}
		if got := relDiffer(c.b, c.a, c.x); got != c.want {
			t.Errorf("relDiffer not symmetric for (%v,%v)", c.a, c.b)
		}
	}
}

func TestSelectionSizeAndClone(t *testing.T) {
	tA := feature.Type{Entity: "e", Attribute: "a"}
	tB := feature.Type{Entity: "e", Attribute: "b"}
	s := Selection{tA: 2, tB: 1}
	if s.Size() != 3 {
		t.Fatalf("Size = %d", s.Size())
	}
	c := s.Clone()
	c[tA] = 9
	if s[tA] != 2 {
		t.Fatal("Clone aliases original")
	}
}

func TestValidityPrefixRule(t *testing.T) {
	// pro total 10, con total 4: significance order [pro, con].
	s := mkStats("r", 10, map[[2]string]int{
		{"pro", "compact"}: 6, {"pro", "bright"}: 4,
		{"con", "pricey"}: 4,
	})
	pro := feature.Type{Entity: "review", Attribute: "pro"}
	con := feature.Type{Entity: "review", Attribute: "con"}

	valid := &DFS{Stats: s, Sel: Selection{pro: 1}}
	if err := valid.Validate(5); err != nil {
		t.Fatalf("prefix selection rejected: %v", err)
	}
	both := &DFS{Stats: s, Sel: Selection{pro: 2, con: 1}}
	if err := both.Validate(5); err != nil {
		t.Fatalf("full selection rejected: %v", err)
	}
	skip := &DFS{Stats: s, Sel: Selection{con: 1}} // skips pro
	if err := skip.Validate(5); err == nil {
		t.Fatal("out-of-order selection accepted")
	}
}

func TestValidityDepthAndSize(t *testing.T) {
	s := mkStats("r", 10, map[[2]string]int{{"pro", "compact"}: 6, {"pro", "bright"}: 4})
	pro := feature.Type{Entity: "review", Attribute: "pro"}
	tooDeep := &DFS{Stats: s, Sel: Selection{pro: 3}}
	if err := tooDeep.Validate(9); err == nil {
		t.Fatal("depth beyond values accepted")
	}
	zeroDepth := &DFS{Stats: s, Sel: Selection{pro: 0}}
	if err := zeroDepth.Validate(9); err == nil {
		t.Fatal("zero depth accepted")
	}
	overBudget := &DFS{Stats: s, Sel: Selection{pro: 2}}
	if err := overBudget.Validate(1); err == nil {
		t.Fatal("size over bound accepted")
	}
	missing := &DFS{Stats: s, Sel: Selection{{Entity: "x", Attribute: "y"}: 1}}
	if err := missing.Validate(9); err == nil {
		t.Fatal("absent type accepted")
	}
}

func TestPairDoDSharedTypesOnly(t *testing.T) {
	a := mkStats("a", 10, map[[2]string]int{{"pro", "compact"}: 9, {"con", "pricey"}: 5})
	b := mkStats("b", 10, map[[2]string]int{{"pro", "compact"}: 3, {"use", "auto"}: 5})
	pro := feature.Type{Entity: "review", Attribute: "pro"}
	con := feature.Type{Entity: "review", Attribute: "con"}
	use := feature.Type{Entity: "review", Attribute: "use"}

	da := &DFS{Stats: a, Sel: Selection{pro: 1, con: 1}}
	db := &DFS{Stats: b, Sel: Selection{pro: 1, use: 1}}
	// Only pro is shared; 0.9 vs 0.3 differs.
	if got := PairDoD(da, db, 0.1); got != 1 {
		t.Fatalf("PairDoD = %d, want 1", got)
	}
	if got := PairDoD(db, da, 0.1); got != 1 {
		t.Fatal("PairDoD not symmetric")
	}
}

func TestPairDoDAbsentValueDifferentiates(t *testing.T) {
	// Both select "pro", but a's top value does not occur in b at all:
	// rel 0 vs positive differentiates.
	a := mkStats("a", 10, map[[2]string]int{{"pro", "compact"}: 9})
	b := mkStats("b", 10, map[[2]string]int{{"pro", "bright"}: 9})
	pro := feature.Type{Entity: "review", Attribute: "pro"}
	da := &DFS{Stats: a, Sel: Selection{pro: 1}}
	db := &DFS{Stats: b, Sel: Selection{pro: 1}}
	if got := PairDoD(da, db, 0.1); got != 1 {
		t.Fatalf("PairDoD = %d, want 1", got)
	}
}

// TestEvaluatorsNormalizeThreshold: x <= 0 selects DefaultThreshold in
// the evaluators exactly as Options.Normalized does in the generators,
// so a DFS set is never optimized at 10 % and scored at 0 %. The two
// results here are 5 % apart on their one shared type.
func TestEvaluatorsNormalizeThreshold(t *testing.T) {
	a := mkStats("a", 40, map[[2]string]int{{"pro", "compact"}: 20})
	b := mkStats("b", 40, map[[2]string]int{{"pro", "compact"}: 21})
	pro := feature.Type{Entity: "review", Attribute: "pro"}
	dfss := []*DFS{{Stats: a, Sel: Selection{pro: 1}}, {Stats: b, Sel: Selection{pro: 1}}}
	want := TotalDoD(dfss, DefaultThreshold)
	if want != 0 {
		t.Fatalf("5%% apart differentiates at the default threshold: DoD %d", want)
	}
	if got := TotalDoD(dfss, 0.01); got != 1 {
		t.Fatalf("5%% apart does not differentiate at x = 1%%: DoD %d", got)
	}
	for _, x := range []float64{0, -1} {
		if got := TotalDoD(dfss, x); got != want {
			t.Fatalf("TotalDoD(x=%v) = %d, TotalDoD(DefaultThreshold) = %d", x, got, want)
		}
		if got := PairDoD(dfss[0], dfss[1], x); got != want {
			t.Fatalf("PairDoD(x=%v) = %d, want %d", x, got, want)
		}
		if got := WeightedDoD(dfss, x, nil); got != float64(want) {
			t.Fatalf("WeightedDoD(x=%v) = %v, want %d", x, got, want)
		}
	}
}

func TestPairDoDEqualFrequenciesDoNotDifferentiate(t *testing.T) {
	a := mkStats("a", 10, map[[2]string]int{{"pro", "compact"}: 8})
	b := mkStats("b", 10, map[[2]string]int{{"pro", "compact"}: 8})
	pro := feature.Type{Entity: "review", Attribute: "pro"}
	da := &DFS{Stats: a, Sel: Selection{pro: 1}}
	db := &DFS{Stats: b, Sel: Selection{pro: 1}}
	if got := PairDoD(da, db, 0.1); got != 0 {
		t.Fatalf("PairDoD = %d, want 0", got)
	}
}

func TestDoDMonotoneUnderGrowth(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for iter := 0; iter < 200; iter++ {
		stats := randomStatsSet(r, 3, 3, 3)
		opts := Options{SizeBound: 6, Threshold: 0.1}
		dfss := Random(stats, Options{SizeBound: 3, Threshold: 0.1}, r)
		before := TotalDoD(dfss, opts.Threshold)
		// Grow one DFS by one random move.
		i := r.Intn(len(dfss))
		moves := growMoves(dfss[i])
		if len(moves) == 0 {
			continue
		}
		applyMove(dfss[i].Sel, moves[r.Intn(len(moves))])
		after := TotalDoD(dfss, opts.Threshold)
		if after < before {
			t.Fatalf("DoD decreased after growth: %d -> %d", before, after)
		}
	}
}

// randomStatsSet builds n random results over a shared pool of
// attributes/values so types overlap across results.
func randomStatsSet(r *rand.Rand, n, nAttrs, nVals int) []*feature.Stats {
	attrs := []string{"pro", "con", "use", "size", "color"}[:nAttrs]
	vals := []string{"v1", "v2", "v3", "v4"}[:nVals]
	out := make([]*feature.Stats, n)
	for i := range out {
		counts := make(map[[2]string]int)
		for _, a := range attrs {
			for _, v := range vals {
				if r.Intn(3) > 0 {
					counts[[2]string{a, v}] = r.Intn(10)
				}
			}
		}
		out[i] = mkStats("r"+string(rune('A'+i)), 10, counts)
	}
	return out
}

func TestAlgorithmsProduceValidDFSs(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	opts := Options{SizeBound: 5, Threshold: 0.1}
	for iter := 0; iter < 100; iter++ {
		stats := randomStatsSet(r, 3, 4, 3)
		for _, alg := range []Algorithm{AlgSingleSwap, AlgMultiSwap, AlgTopK} {
			dfss := Generate(alg, stats, opts)
			for _, d := range dfss {
				if err := d.Validate(opts.SizeBound); err != nil {
					t.Fatalf("%s produced invalid DFS: %v", alg, err)
				}
			}
		}
		rnd := Random(stats, opts, r)
		for _, d := range rnd {
			if err := d.Validate(opts.SizeBound); err != nil {
				t.Fatalf("Random produced invalid DFS: %v", err)
			}
		}
	}
}

func TestMultiSwapAtLeastSingleSwap(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	opts := Options{SizeBound: 4, Threshold: 0.1}
	worse := 0
	for iter := 0; iter < 150; iter++ {
		stats := randomStatsSet(r, 3, 4, 3)
		ss := TotalDoD(SingleSwap(stats, opts), opts.Threshold)
		ms := TotalDoD(MultiSwap(stats, opts), opts.Threshold)
		if ms < ss {
			worse++
			t.Logf("iter %d: multi %d < single %d", iter, ms, ss)
		}
	}
	// Both are local optima of different neighbourhoods; multi-swap's
	// neighbourhood strictly contains single-swap's per-result moves,
	// but coordinate ascent paths differ, so allow rare inversions —
	// the paper's Figure 4(a) shows "generally outperforms".
	if worse > 7 { // >5% of runs
		t.Fatalf("multi-swap worse than single-swap in %d/150 runs", worse)
	}
}

func TestAlgorithmsBeatOrMatchTopK(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	opts := Options{SizeBound: 4, Threshold: 0.1}
	for iter := 0; iter < 100; iter++ {
		stats := randomStatsSet(r, 3, 4, 3)
		top := TotalDoD(TopK(stats, opts), opts.Threshold)
		ss := TotalDoD(SingleSwap(stats, opts), opts.Threshold)
		ms := TotalDoD(MultiSwap(stats, opts), opts.Threshold)
		if ss < top || ms < top {
			// Both start from the TopK selection and only accept
			// improving moves, so they can never end lower.
			t.Fatalf("iter %d: topk=%d single=%d multi=%d", iter, top, ss, ms)
		}
	}
}

func TestMultiSwapMatchesExhaustiveOnTinyInstances(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	opts := Options{SizeBound: 3, Threshold: 0.1}
	mismatches := 0
	for iter := 0; iter < 60; iter++ {
		stats := randomStatsSet(r, 2, 2, 2)
		ex := Exhaustive(stats, opts)
		if ex == nil {
			t.Fatal("exhaustive refused tiny instance")
		}
		exDoD := TotalDoD(ex, opts.Threshold)
		msDoD := TotalDoD(MultiSwap(stats, opts), opts.Threshold)
		if msDoD > exDoD {
			t.Fatalf("multi-swap %d beat exhaustive %d — oracle broken", msDoD, exDoD)
		}
		if msDoD < exDoD {
			mismatches++
		}
	}
	// With only two results, each block step optimizes against the
	// other exactly, so multi-swap should reach the global optimum in
	// nearly every instance (ties/plateaus can strand it rarely).
	if mismatches > 3 {
		t.Fatalf("multi-swap missed the exhaustive optimum in %d/60 tiny runs", mismatches)
	}
}

func TestSingleSwapOptimalityAtFixpoint(t *testing.T) {
	// At termination, no single grow and no shrink+grow swap may
	// increase total DoD — the definition of single-swap optimality.
	r := rand.New(rand.NewSource(16))
	opts := Options{SizeBound: 4, Threshold: 0.1}
	for iter := 0; iter < 40; iter++ {
		stats := randomStatsSet(r, 3, 3, 3)
		dfss := SingleSwap(stats, opts)
		base := TotalDoD(dfss, opts.Threshold)
		for i, d := range dfss {
			if d.Sel.Size() < opts.SizeBound {
				for _, g := range growMoves(d) {
					prev, had := d.Sel[g.t]
					applyMove(d.Sel, g)
					if TotalDoD(dfss, opts.Threshold) > base {
						t.Fatalf("iter %d: grow move on result %d improves DoD at fixpoint", iter, i)
					}
					restore(d.Sel, g.t, prev, had)
				}
			}
			for _, s := range shrinkMoves(d) {
				sPrev, sHad := d.Sel[s.t]
				applyMove(d.Sel, s)
				for _, g := range growMoves(d) {
					if g.t == s.t {
						continue
					}
					gPrev, gHad := d.Sel[g.t]
					applyMove(d.Sel, g)
					if d.Sel.Size() <= opts.SizeBound && TotalDoD(dfss, opts.Threshold) > base {
						t.Fatalf("iter %d: swap move on result %d improves DoD at fixpoint", iter, i)
					}
					restore(d.Sel, g.t, gPrev, gHad)
				}
				restore(d.Sel, s.t, sPrev, sHad)
			}
		}
	}
}

func TestFeaturesEnumeration(t *testing.T) {
	s := mkStats("r", 10, map[[2]string]int{
		{"pro", "compact"}: 6, {"pro", "bright"}: 4, {"con", "pricey"}: 2,
	})
	pro := feature.Type{Entity: "review", Attribute: "pro"}
	con := feature.Type{Entity: "review", Attribute: "con"}
	d := &DFS{Stats: s, Sel: Selection{pro: 2, con: 1}}
	fs := d.Features()
	if len(fs) != 3 {
		t.Fatalf("Features = %v", fs)
	}
	if fs[0].Value != "compact" || fs[1].Value != "bright" || fs[2].Value != "pricey" {
		t.Fatalf("feature order = %v", fs)
	}
	if d.Size() != 3 {
		t.Fatalf("Size = %d", d.Size())
	}
}

func TestEnumerateSelectionsValidity(t *testing.T) {
	s := mkStats("r", 10, map[[2]string]int{
		{"pro", "compact"}: 6, {"pro", "bright"}: 4, {"con", "pricey"}: 2,
	})
	sels := enumerateSelections(s, 3)
	seen := make(map[string]bool)
	for _, sel := range sels {
		d := &DFS{Stats: s, Sel: sel}
		if err := d.Validate(3); err != nil {
			t.Fatalf("enumerated invalid selection: %v", err)
		}
		key := ""
		for _, f := range d.Features() {
			key += f.String() + ";"
		}
		if seen[key] {
			t.Fatalf("duplicate selection enumerated: %s", key)
		}
		seen[key] = true
	}
	// pro depths 0..2, con 0..1 with prefix rule and budget 3:
	// {}, {p1}, {p2}, {p1,c1}, {p2,c1} = 5.
	if len(sels) != 5 {
		t.Fatalf("enumerated %d selections, want 5", len(sels))
	}
}

func TestGenerateUnknownAlgorithm(t *testing.T) {
	if Generate(Algorithm("nope"), nil, Options{}) != nil {
		t.Fatal("unknown algorithm should return nil")
	}
}

func TestPaddingFillsBudget(t *testing.T) {
	s := mkStats("r", 10, map[[2]string]int{
		{"pro", "compact"}: 6, {"pro", "bright"}: 4, {"con", "pricey"}: 2,
	})
	d := &DFS{Stats: s, Sel: make(Selection)}
	pad(d, 3)
	if d.Size() != 3 {
		t.Fatalf("pad filled to %d, want 3", d.Size())
	}
	if err := d.Validate(3); err != nil {
		t.Fatalf("padded DFS invalid: %v", err)
	}
	// Budget larger than the result: all features selected, no loop.
	d2 := &DFS{Stats: s, Sel: make(Selection)}
	pad(d2, 100)
	if d2.Size() != 3 {
		t.Fatalf("over-budget pad = %d features", d2.Size())
	}
}

func TestDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	stats := randomStatsSet(r, 3, 4, 3)
	opts := Options{SizeBound: 5, Threshold: 0.1}
	for _, alg := range []Algorithm{AlgSingleSwap, AlgMultiSwap, AlgTopK} {
		a := Generate(alg, stats, opts)
		b := Generate(alg, stats, opts)
		if TotalDoD(a, opts.Threshold) != TotalDoD(b, opts.Threshold) {
			t.Fatalf("%s not deterministic", alg)
		}
		for i := range a {
			if len(a[i].Sel) != len(b[i].Sel) {
				t.Fatalf("%s selections differ across runs", alg)
			}
			for tp, depth := range a[i].Sel {
				if b[i].Sel[tp] != depth {
					t.Fatalf("%s selections differ for %s", alg, tp)
				}
			}
		}
	}
}

func BenchmarkSingleSwap(b *testing.B) {
	r := rand.New(rand.NewSource(18))
	stats := randomStatsSet(r, 5, 5, 4)
	opts := Options{SizeBound: 8, Threshold: 0.1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SingleSwap(stats, opts)
	}
}

func BenchmarkMultiSwap(b *testing.B) {
	r := rand.New(rand.NewSource(18))
	stats := randomStatsSet(r, 5, 5, 4)
	opts := Options{SizeBound: 8, Threshold: 0.1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MultiSwap(stats, opts)
	}
}
