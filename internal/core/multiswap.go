package core

import "repro/internal/feature"

// MultiSwap generates DFSs with the paper's multi-swap method:
// block-coordinate ascent where each step replaces one result's entire
// selection with the *optimal* valid selection given the other DFSs,
// computed exactly by a nested dynamic program (per-entity prefix DP
// combined by a knapsack over entities). At the fixpoint no change of
// any number of features in any single DFS can increase the total DoD
// — multi-swap optimality.
func MultiSwap(stats []*feature.Stats, opts Options) []*DFS {
	return swapGenerate(stats, opts, (*kernel).multiSwapAscend, 1)
}

// multiSwapAscend runs the block-coordinate ascent to its fixpoint.
// It is inherently sequential across results: each step conditions on
// every other result's current selection.
func (kn *kernel) multiSwapAscend() {
	rounds := 0
	for {
		improved := false
		for i := 0; i < kn.k; i++ {
			row := kn.row(i)
			base := kn.resultDoD(i, row)
			cand, size := kn.optimalSelection(i)
			if kn.resultDoD(i, cand) > base {
				copy(row, cand)
				kn.size[i] = size
				improved = true
			}
		}
		rounds++
		if !improved || (kn.opts.MaxRounds > 0 && rounds >= kn.opts.MaxRounds) {
			break
		}
	}
}

// negGain marks an infeasible cost in the dynamic programs.
const negGain = -1 << 30

// dpScratch holds multi-swap's dynamic-programming tables, reused
// across steps. Per entity e of the result being optimized, at offset
// e*(L+1): curve[c] is the best gain with exactly c features in e and
// bestK[c] the prefix length realizing it; depthAt holds e's prefix
// DP back-pointers at offset dOff[e].
type dpScratch struct {
	cand               []uint8
	gain, dp           []int
	curve, bestK       []int
	depthAt            []uint8
	dOff               []int
	knap, next, parent []int
}

func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// optimalSelection computes, exactly, a valid selection for result i
// maximizing Σ_j DoD(D_i, D_j) with the other selections fixed,
// subject to |D_i| ≤ L. Among equal-gain selections it prefers smaller
// ones and then pads with the most significant features, keeping the
// result a faithful summary. It returns the selection as a scratch row
// (valid until the next call) and its size.
func (kn *kernel) optimalSelection(i int) ([]uint8, int) {
	L := kn.opts.SizeBound
	w := L + 1
	s := &kn.dp
	spans := kn.spans[i]
	s.curve = grown(s.curve, len(spans)*w)
	s.bestK = grown(s.bestK, len(spans)*w)
	s.dOff = grown(s.dOff, len(spans)+1)
	s.dOff[0] = 0
	for e, sp := range spans {
		s.dOff[e+1] = s.dOff[e] + (sp.hi-sp.lo+1)*w
	}
	s.depthAt = grown(s.depthAt, s.dOff[len(spans)])
	for e := range spans {
		kn.entityCurve(i, e)
	}

	// Knapsack across entities: knap[c] = best total gain with exactly
	// c features; parent pointers reconstruct the per-entity allocation.
	s.knap = grown(s.knap, w)
	s.next = grown(s.next, w)
	s.parent = grown(s.parent, len(spans)*w)
	clear(s.parent)
	for c := range s.knap {
		s.knap[c] = negGain
	}
	s.knap[0] = 0
	for e := range spans {
		curve, parent := s.curve[e*w:(e+1)*w], s.parent[e*w:(e+1)*w]
		for c := range s.next {
			s.next[c] = negGain
		}
		for c := 0; c <= L; c++ {
			if s.knap[c] == negGain {
				continue
			}
			for alloc := 0; alloc+c <= L; alloc++ {
				if curve[alloc] == negGain {
					continue
				}
				if g := s.knap[c] + curve[alloc]; g > s.next[c+alloc] {
					s.next[c+alloc] = g
					parent[c+alloc] = alloc
				}
			}
		}
		s.knap, s.next = s.next, s.knap
	}

	// Best gain at the smallest cost.
	bestC, bestG := 0, 0
	for c := 0; c <= L; c++ {
		if s.knap[c] != negGain && s.knap[c] > bestG {
			bestG, bestC = s.knap[c], c
		}
	}

	s.cand = grown(s.cand, kn.nt)
	clear(s.cand)
	c := bestC
	for e := len(spans) - 1; e >= 0; e-- {
		alloc := s.parent[e*w+c]
		if alloc > 0 {
			order := kn.order[spans[e].lo:spans[e].hi]
			depthAt := s.depthAt[s.dOff[e]:s.dOff[e+1]]
			cc := alloc
			for k := s.bestK[e*w+alloc]; k >= 1; k-- {
				dep := depthAt[k*w+cc]
				s.cand[order[k-1]] = dep
				cc -= int(dep)
			}
		}
		c -= alloc
	}

	// Fill leftover budget with significance padding (never lowers DoD).
	return s.cand, kn.pad(i, s.cand, bestC, L)
}

// entityCurve computes, for entity e of result i, the maximum
// differentiation gain achievable with exactly c features (c in 0..L)
// into the scratch curve, honoring validity: the selected types are a
// prefix of the significance order and each selected type takes a
// prefix of its values (depth >= 1). bestK and depthAt record the
// depths realizing each optimum; an infeasible c gets negGain.
func (kn *kernel) entityCurve(i, e int) {
	L := kn.opts.SizeBound
	w := L + 1
	s := &kn.dp
	sp := kn.spans[i][e]
	order := kn.order[sp.lo:sp.hi]
	n := len(order)

	// gain[ti*w+depth] = number of other results differentiated by type
	// order[ti] when result i shows its top-depth values.
	s.gain = grown(s.gain, n*w)
	for ti, t32 := range order {
		t := int(t32)
		kn.column(t)
		nv := int(kn.nv[i*kn.nt+t])
		for depth := 1; depth <= nv; depth++ {
			g := 0
			for j := 0; j < kn.k; j++ {
				if dj := kn.sel[j*kn.nt+t]; j != i && dj > 0 && kn.differs(t, i, j, uint8(depth), dj) {
					g++
				}
			}
			s.gain[ti*w+depth] = g
		}
	}

	// dp[k*w+c] = max gain selecting exactly the first k types with
	// total cost c; depthAt[k*w+c] = depth of type k-1 in that optimum.
	s.dp = grown(s.dp, (n+1)*w)
	for c := range s.dp {
		s.dp[c] = negGain
	}
	depthAt := s.depthAt[s.dOff[e]:s.dOff[e+1]]
	s.dp[0] = 0
	for k := 1; k <= n; k++ {
		nv := int(kn.nv[i*kn.nt+int(order[k-1])])
		prev, cur := s.dp[(k-1)*w:k*w], s.dp[k*w:(k+1)*w]
		for c := 0; c <= L; c++ {
			for depth := 1; depth <= nv && depth <= c; depth++ {
				if prev[c-depth] == negGain {
					continue
				}
				if g := prev[c-depth] + s.gain[(k-1)*w+depth]; g > cur[c] {
					cur[c] = g
					depthAt[k*w+c] = uint8(depth)
				}
			}
		}
	}

	curve, bestK := s.curve[e*w:(e+1)*w], s.bestK[e*w:(e+1)*w]
	curve[0], bestK[0] = 0, 0 // empty prefix: feasible, no types
	for c := 1; c <= L; c++ {
		bestK[c] = -1
		best := negGain
		for k := 1; k <= n; k++ {
			if s.dp[k*w+c] > best {
				best = s.dp[k*w+c]
				bestK[c] = k
			}
		}
		curve[c] = best
	}
}
