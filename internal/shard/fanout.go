package shard

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// Fanout is the transport-agnostic fan-out/merge layer: the whole
// query pipeline of a sharded corpus — global keyword check, per-leg
// dispatch, SLCA spine fix-up, K-way ranked merge, whole-corpus
// ranking constants — over an abstract set of Legs. The in-process
// Engine embeds one over local legs; package dist builds one over
// HTTP legs. Both produce bit-identical output because every shared
// decision (spine fix-up, merge keys, TF-IDF inputs) is made here
// from aggregated integer statistics.
type Fanout struct {
	root   *xmltree.Node
	schema *xseek.Schema
	part   Partition
	legs   []Leg

	// spine is a pipeline engine over the tiny spine-only index; it
	// also supplies the entity-map stage for spine-rooted SLCAs.
	spine *xseek.Engine
	// spineByDepth orders the spine deepest-first for the SLCA fix-up.
	spineByDepth []*xmltree.Node
	own          Ownership

	// Whole-corpus ranking constants, aggregated across legs so
	// per-leg scores are bit-identical to monolithic scores.
	totalNodes int
	df         termFreqs
	idf        map[string]float64
	// elements is the aggregate count of distinct indexed elements,
	// carried alongside df so IndexStats never has to ask a leg.
	elements int

	// plannerStreamed counts ranked pages that ran the streamed
	// fan-out. A pointer so epoch-swapped fan-outs (dist) can carry
	// one counter across rebuilds via AdoptCounters.
	plannerStreamed *atomic.Int64

	// onLegErr, when non-nil, is consulted when a ranked leg fails:
	// returning nil drops that leg's contribution and degrades the
	// page (spine fix-up skipped, total reported as
	// xseek.StreamTotalUnknown) instead of failing the query.
	// Doc-order Search is always strict — a missing leg could promote
	// spurious spine SLCAs, which would be wrong, not just partial.
	onLegErr func(g int, err error) error
}

// Ownership maps subtree IDs to their owning partition group.
type Ownership struct {
	// spineSet marks spine Dewey IDs (owned by no group).
	spineSet map[string]bool
	// groupStart[g] is the Dewey ID of group g's first segment, the
	// ownership boundary for result scoring.
	groupStart []dewey.ID
}

// Ownership derives the partition's subtree-to-group mapping.
// Entities appended after the partition was planned (live adds carry
// ordinals beyond every planned segment) resolve to the last group.
func (p Partition) Ownership() Ownership {
	o := Ownership{spineSet: make(map[string]bool, len(p.Spine))}
	for _, n := range p.Spine {
		o.spineSet[n.ID.String()] = true
	}
	o.groupStart = make([]dewey.ID, len(p.Groups))
	for g, r := range p.Groups {
		if r[0] < r[1] {
			o.groupStart[g] = p.Segments[r[0]].ID
		} else {
			o.groupStart[g] = dewey.Root() // empty group: owns nothing
		}
	}
	return o
}

// Owner returns the group owning the subtree at id, or -1 for spine
// nodes (whose subtrees span groups).
func (o Ownership) Owner(id dewey.ID) int {
	if o.spineSet[id.String()] {
		return -1
	}
	g := sort.Search(len(o.groupStart), func(i int) bool {
		return o.groupStart[i].Compare(id) > 0
	}) - 1
	if g < 0 {
		return -1
	}
	return g
}

// Spine reports whether id is a spine node of the partition.
func (o Ownership) Spine(id dewey.ID) bool { return o.spineSet[id.String()] }

// newFanout fills in the partition-derived lookup structures. The IDF
// table is created empty and populated by initRanking: every leg
// engine built against it holds a reference to this one shared map,
// so legs built before the frequencies are aggregated see the same
// weights.
func newFanout(root *xmltree.Node, schema *xseek.Schema, part Partition, spineIdx *index.Index) *Fanout {
	f := &Fanout{
		root:            root,
		schema:          schema,
		part:            part,
		totalNodes:      part.NodeCount, // == root.CountNodes(), free from the partition walk
		idf:             make(map[string]float64),
		own:             part.Ownership(),
		plannerStreamed: new(atomic.Int64),
	}
	f.spineByDepth = append(f.spineByDepth, part.Spine...)
	sort.SliceStable(f.spineByDepth, func(i, j int) bool {
		return f.spineByDepth[i].ID.Level() > f.spineByDepth[j].ID.Level()
	})
	f.spine = xseek.FromPartsRanked(root, spineIdx, schema, f.totalNodes, f.idf)
	return f
}

// NewFanout assembles a fan-out over explicit legs — the distributed
// coordinator's constructor. spineIdx must index exactly the
// partition's spine nodes; df must be the whole-corpus per-term
// document frequencies (spine included) and elements the aggregate
// distinct-indexed-element count, both aggregated from the same
// integer statistics the legs score with, so every derived IDF weight
// is bit-identical on both sides of the transport.
func NewFanout(root *xmltree.Node, schema *xseek.Schema, part Partition, spineIdx *index.Index, legs []Leg, df map[string]int, elements int) *Fanout {
	f := newFanout(root, schema, part, spineIdx)
	f.legs = legs
	f.elements = elements
	f.initRanking(df)
	return f
}

// WithLegFailurePolicy returns a shallow view of the fan-out whose
// ranked paths consult policy when a leg fails (see onLegErr). The
// receiver is unchanged; the view shares all state and counters.
func (f *Fanout) WithLegFailurePolicy(policy func(g int, err error) error) *Fanout {
	nf := *f
	nf.onLegErr = policy
	return &nf
}

// AdoptCounters carries the streamed-decision counter over from a
// previous fan-out of the same logical corpus (epoch-swapped rebuilds
// must not reset metrics).
func (f *Fanout) AdoptCounters(prev *Fanout) {
	if prev != nil {
		f.plannerStreamed = prev.plannerStreamed
	}
}

// initRanking installs the whole-corpus term statistics, filling the
// shared IDF table in place.
func (f *Fanout) initRanking(df map[string]int) {
	f.df = df
	for t, n := range df {
		f.idf[t] = xseek.IDF(f.totalNodes, n)
	}
}

// termFreqs is the aggregated whole-corpus frequency table, the
// xseek.Vocabulary the keyword check, estimate and query cleaning read.
type termFreqs map[string]int

func (t termFreqs) DocFreq(term string) int { return t[term] }

func (t termFreqs) EachTerm(f func(term string, df int)) {
	for term, n := range t {
		f(term, n)
	}
}

// Root returns the corpus the fan-out serves.
func (f *Fanout) Root() *xmltree.Node { return f.root }

// Schema returns the (whole-corpus) inferred schema summary.
func (f *Fanout) Schema() *xseek.Schema { return f.schema }

// Partition returns the segment/spine split the legs were built on.
func (f *Fanout) Partition() Partition { return f.part }

// LegCount returns K, the number of legs.
func (f *Fanout) LegCount() int { return len(f.legs) }

// TotalNodes returns the whole-corpus node count.
func (f *Fanout) TotalNodes() int { return f.totalNodes }

// DocFreq returns the number of corpus nodes containing term,
// aggregated across every leg — the CorpusStats view database
// selection scores.
func (f *Fanout) DocFreq(term string) int { return f.df[term] }

// IndexStats returns aggregate index statistics equal to the
// monolithic index's: distinct terms and total postings fall out of
// the shared frequency table (a posting is one (term, element) pair,
// so postings sum to Σ df), and the element count is carried from
// build time. No leg is touched, so a metrics probe never makes a
// remote call.
func (f *Fanout) IndexStats() index.Stats {
	s := index.Stats{Terms: len(f.df), IndexedElements: f.elements}
	for _, n := range f.df {
		s.Postings += n
	}
	return s
}

// StreamedDecisions reports how many ranked pages ran the streamed
// fan-out.
func (f *Fanout) StreamedDecisions() int64 { return f.plannerStreamed.Load() }

// tfCounts resolves postings-under-subtree counts for a probe batch:
// a group-owned probe goes to its owning leg alone; a spine probe
// sums the local spine index and every leg (the node sets are
// disjoint, so the sums equal the monolithic index's counts exactly).
// One batched call per leg, whatever the probe count — the unit of
// work a remote leg pays a round trip for.
func (f *Fanout) tfCounts(probes []TFProbe) ([]int, error) {
	out := make([]int, len(probes))
	perLeg := make([][]int, len(f.legs)) // probe indices routed to each leg
	for g := range perLeg {
		perLeg[g] = make([]int, 0, len(probes)/len(f.legs)+1) // owned probes split about evenly
	}
	for i, p := range probes {
		if g := f.own.Owner(p.ID); g >= 0 {
			perLeg[g] = append(perLeg[g], i)
			continue
		}
		out[i] = index.CountUnder(f.spine.Index().Lookup(p.Term), p.ID)
		for g := range f.legs {
			perLeg[g] = append(perLeg[g], i)
		}
	}
	counts := make([][]int, len(f.legs))
	errs := make([]error, len(f.legs))
	core.ForEachParallel(len(f.legs), 0, func(g int) {
		if len(perLeg[g]) == 0 {
			return
		}
		sub := make([]TFProbe, len(perLeg[g]))
		for j, i := range perLeg[g] {
			sub[j] = probes[i]
		}
		counts[g], errs[g] = f.legs[g].TFUnderLeg(sub)
	})
	for g := range f.legs {
		if errs[g] != nil {
			return nil, errs[g]
		}
		if len(perLeg[g]) == 0 {
			continue
		}
		if len(counts[g]) != len(perLeg[g]) {
			return nil, fmt.Errorf("shard: leg %d returned %d counts for %d probes", g, len(counts[g]), len(perLeg[g]))
		}
		for j, i := range perLeg[g] {
			out[i] += counts[g][j]
		}
	}
	return out, nil
}
