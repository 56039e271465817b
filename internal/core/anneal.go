package core

import (
	"math"
	"math/rand"

	"repro/internal/feature"
)

// AnnealOptions configures simulated annealing.
type AnnealOptions struct {
	Options
	// Seed drives the random walk; equal seeds give equal outputs.
	Seed int64
	// Steps is the number of proposal steps. Zero means 2000.
	Steps int
	// StartTemp is the initial temperature in DoD units. Zero means 2.
	StartTemp float64
}

// Anneal explores the joint DFS space with simulated annealing —
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
func Anneal(stats []*feature.Stats, opts AnnealOptions) []*DFS {
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

	kn := newKernel(stats, o)
	kn.padAll(1)
	cur := kn.totalDoD()
	best := cur
	bestSel := append([]uint8(nil), kn.sel...)

	for step := 0; step < steps; step++ {
		i := rng.Intn(kn.k)
		m, prev, delta, ok := kn.proposeMove(i, rng)
		if !ok {
			continue
		}
		accept := delta >= 0
		if !accept {
			accept = rng.Float64() < math.Exp(float64(delta)/temp)
		}
		if !accept {
			kn.apply(i, denseMove{t: m.t, depth: prev})
		} else {
			cur += delta
			if cur > best {
				best = cur
				copy(bestSel, kn.sel)
			}
		}
		temp *= cool
	}
	kn.sel = bestSel
	return kn.dfss()
}

// proposeMove applies a random valid grow or shrink move to result i
// and returns it with the depth it replaced and its DoD delta; ok is
// false when no move applies.
func (kn *kernel) proposeMove(i int, rng *rand.Rand) (m denseMove, prev uint8, delta int, ok bool) {
	kn.moves = kn.moves[:0]
	if kn.size[i] < kn.opts.SizeBound {
		kn.moves = kn.growMoves(i, kn.row(i), kn.moves)
	}
	grows := len(kn.moves)
	kn.moves2 = kn.shrinkMoves(i, kn.moves2)
	total := grows + len(kn.moves2)
	if total == 0 {
		return m, 0, 0, false
	}
	if pick := rng.Intn(total); pick < grows {
		m = kn.moves[pick]
	} else {
		m = kn.moves2[pick-grows]
	}
	prev = kn.sel[i*kn.nt+int(m.t)]
	delta = kn.typeDelta(i, int(m.t), prev, m.depth)
	kn.apply(i, m)
	return m, prev, delta, true
}
