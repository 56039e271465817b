package core

import "repro/internal/feature"

// Interestingness weighs feature types when scoring differentiation —
// the paper's closing future-work item ("considering more factors
// (e.g., interestingness) when selecting features"). A weight of 1 is
// neutral; larger weights make differences in that type count more.
type Interestingness func(feature.Type) float64

// UniformInterest weighs every type equally (plain DoD).
func UniformInterest(feature.Type) float64 { return 1 }

// ContrastInterest weighs a type by how spread-out its top-value
// frequencies are across the compared results: types on which results
// genuinely disagree (one says 90%, another 10%) are more interesting
// to show than types that differ only barely past the threshold. The
// returned function is fixed for the given result set.
func ContrastInterest(stats []*feature.Stats) Interestingness {
	type spread struct {
		lo, hi  float64
		present int
	}
	spreads := make(map[feature.Type]*spread)
	for _, s := range stats {
		for _, c := range s.Columns() {
			rel := float64(c.Values()[0].Count) / float64(c.Group())
			sp := spreads[c.Type]
			if sp == nil {
				sp = &spread{lo: 1}
				spreads[c.Type] = sp
			}
			sp.lo, sp.hi, sp.present = min(sp.lo, rel), max(sp.hi, rel), sp.present+1
		}
	}
	return func(t feature.Type) float64 {
		if sp := spreads[t]; sp != nil && sp.present >= 2 {
			return 1 + (sp.hi - sp.lo) // spread in [0,1] adds up to +1
		}
		return 1
	}
}

// WeightedDoD is TotalDoD with per-type interestingness weights: each
// differentiable shared type contributes its weight instead of 1.
func WeightedDoD(dfss []*DFS, x float64, interest Interestingness) float64 {
	if interest == nil {
		interest = UniformInterest
	}
	total := 0.0
	forSharedTypes(dfss, x, func(t feature.Type, differing int) { total += float64(differing) * interest(t) })
	return total
}

// WeightedGreedy grows all DFSs together like GreedyGlobal but scores
// moves by weighted marginal gain, and weights the frequency tie-break
// too — so interesting types win both when gains compete and during
// the zero-gain bootstrap picks that seed coordination. With
// UniformInterest it reduces to GreedyGlobal. interest is evaluated
// once per feature type.
func WeightedGreedy(stats []*feature.Stats, opts Options, interest Interestingness) []*DFS {
	if interest == nil {
		interest = UniformInterest
	}
	kn := newKernel(stats, opts.normalized())
	weight := make([]float64, kn.nt)
	for t, typ := range kn.types {
		weight[t] = interest(typ)
	}
	for {
		type candidate struct {
			i     int
			m     denseMove
			gain  float64
			score padScore
		}
		best := candidate{i: -1}
		for i := 0; i < kn.k; i++ {
			if kn.size[i] >= kn.opts.SizeBound {
				continue
			}
			row := kn.row(i)
			kn.moves = kn.growMoves(i, row, kn.moves)
			for _, m := range kn.moves {
				w := weight[m.t]
				g := float64(kn.typeDelta(i, int(m.t), row[m.t], m.depth)) * w
				sc := kn.scoreMove(i, m)
				sc.rel *= w
				if best.i == -1 || g > best.gain ||
					(g == best.gain && sc.better(best.score)) {
					best = candidate{i: i, m: m, gain: g, score: sc}
				}
			}
		}
		if best.i == -1 {
			break // every DFS is full (or has nothing left to add)
		}
		kn.apply(best.i, best.m)
	}
	return kn.dfss()
}
