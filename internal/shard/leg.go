package shard

import (
	"errors"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/slca"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// A Leg is one fan-out target: the execution engine of one shard
// group, behind a transport-agnostic call surface. The in-process
// localLeg wraps a lazily built xseek.Engine; package dist implements
// the same interface over HTTP so the coordinator reuses this
// package's merge path unchanged. Every Leg must produce exactly what
// the in-process leg produces for the same group — the merge layer
// depends on it for bit-identical results.
//
// A keyword absent from a leg's group silences that leg (empty
// output, nil error), never the whole query; the global missing-term
// check runs against the aggregated frequencies before any leg is
// called.
type Leg interface {
	// SearchLeg runs the doc-order leg: compile → SLCA → spine filter →
	// entity mapping over the group's index.
	SearchLeg(q LegQuery) (LegDocs, error)
	// RankedLeg runs the score-bounded ranked leg, returning the leg's
	// own top q.Limit in rank order plus its kept SLCAs and full
	// entity-result count.
	// shared is the fan-out's monotone-max threshold; a remote leg
	// forwards a snapshot of it as its score floor and raises it with
	// the leg's final threshold on return.
	RankedLeg(q LegQuery, shared *xseek.SharedThreshold) (LegPage, error)
	// RankSubsetLeg heap-selects the top q.Limit of an explicit
	// leg-owned doc-order result subset — the eager RankPage's
	// per-group stage. The returned entries must reference the input
	// Result objects.
	RankSubsetLeg(q LegQuery, subset []*xseek.Result) ([]*xseek.RankedResult, error)
	// TFUnderLeg counts the postings of probe.Term inside the subtree
	// at probe.ID in the group's index, one count per probe.
	TFUnderLeg(probes []TFProbe) ([]int, error)
}

// LegQuery carries one query leg's parameters.
type LegQuery struct {
	// Query is the normalized query string; Terms its tokenization
	// (forwarded so legs never re-tokenize).
	Query string
	Terms []string
	// Limit is the number of ranked entries the leg keeps (the
	// fan-out's offset+limit); 0 means unbounded.
	Limit int
	// Accuracy is forwarded to the ranked leg's consumer.
	Accuracy xseek.Accuracy
}

// LegDocs is a doc-order leg's output: the group-internal SLCAs it
// kept (document order) and their entity-mapped results.
//
// A kept SLCA can lift to an entity that sits on the spine — an
// entity whose subtree the partition split across groups. Such a
// result needs cross-group knowledge (another leg may hold earlier
// matches under the same entity, and its term frequencies span
// groups), so it is reported in Boundary, not Results: the fan-out
// merges Boundary entries across legs and scores them with
// whole-corpus counts. Results therefore contains only group-owned
// roots, which can never collide across legs.
type LegDocs struct {
	SLCAs    []dewey.ID
	Results  []*xseek.Result
	Boundary []*xseek.Result
}

// LegPage is a ranked leg's output.
type LegPage struct {
	// Top is the leg's own top-Limit, rank order. Spine-rooted
	// entities are excluded — their leg-local scores would be partial
	// — and reported through Boundary instead.
	Top []*xseek.RankedResult
	// SLCAs are the leg's kept (non-spine) SLCAs, document order.
	SLCAs []dewey.ID
	// Boundary are the leg's spine-rooted entity results (document
	// order, unscored); see LegDocs.Boundary. The fan-out merges them
	// across legs and scores them with whole-corpus counts.
	Boundary []*xseek.Result
	// Total is the leg's full entity-result count, Boundary excluded
	// (xseek.StreamTotalUnknown after an approximate early stop).
	Total int
	Stats xseek.WANDStats
}

// TFProbe asks for the posting count of one term inside one subtree.
type TFProbe struct {
	Term string
	ID   dewey.ID
}

// NewLocalLeg wraps an already-built group engine as a Leg — the
// building block a shard server uses to serve its one group remotely.
// part supplies the spine set for the leg's kept-filter; it must be
// the same partition the group index was built under, so server and
// coordinator agree on which SLCAs are cross-segment artifacts.
func NewLocalLeg(root *xmltree.Node, schema *xseek.Schema, part Partition, eng *xseek.Engine) Leg {
	sh := &lazyShard{}
	sh.eng.Store(eng)
	return &localLeg{root: root, schema: schema, spineSet: part.Ownership().spineSet, sh: sh}
}

// localLeg is the in-process Leg over one lazily materialized shard
// engine.
type localLeg struct {
	root     *xmltree.Node
	schema   *xseek.Schema
	spineSet map[string]bool
	sh       *lazyShard
}

func (l *localLeg) SearchLeg(q LegQuery) (LegDocs, error) {
	sh := l.sh.get()
	cq, err := sh.Compile(q.Query)
	if err != nil {
		// A keyword missing from this shard only means no SLCA can
		// fall inside it; other shards (or the spine) still answer.
		var noMatch *index.NoMatchError
		if errors.As(err, &noMatch) {
			return LegDocs{}, nil
		}
		return LegDocs{}, err
	}
	ids := cq.SLCAs()
	kept := make([]dewey.ID, 0, len(ids))
	for _, id := range ids {
		if !l.spineSet[id.String()] {
			kept = append(kept, id)
		}
	}
	rs, err := sh.MapToEntities(kept)
	if err != nil {
		return LegDocs{}, err
	}
	out := LegDocs{SLCAs: kept}
	for _, r := range rs {
		// A group-internal SLCA can still lift to a spine-rooted
		// entity (the partition split that entity's subtree). Those
		// results need cross-group merging, so they travel separately.
		if l.spineSet[r.Node.ID.String()] {
			out.Boundary = append(out.Boundary, r)
		} else {
			out.Results = append(out.Results, r)
		}
	}
	return out, nil
}

func (l *localLeg) RankedLeg(q LegQuery, shared *xseek.SharedThreshold) (LegPage, error) {
	sh := l.sh.get()
	cq, err := sh.Compile(q.Query)
	if err != nil {
		var noMatch *index.NoMatchError
		if errors.As(err, &noMatch) {
			return LegPage{}, nil
		}
		return LegPage{}, err
	}
	it, err := cq.SLCAIter()
	if err != nil {
		return LegPage{}, err
	}
	var out LegPage
	// Drop cross-segment artifacts (spine-owned SLCAs) before entity
	// mapping, collecting the survivors for the spine fix-up — the lazy
	// twin of the kept-filter in SearchLeg.
	filtered := slca.FilterTee(it,
		func(id dewey.ID) bool { return !l.spineSet[id.String()] },
		func(id dewey.ID) { out.SLCAs = append(out.SLCAs, id) },
	)
	es := xseek.NewEntityStream(filtered, l.root, l.schema)
	// Entities rooted on the spine leave the stream before scoring and
	// counting: the leg's index sees only its own groups' matches, so
	// its score for a cross-group entity would be partial, and another
	// leg may emit the same entity. The fan-out re-derives both from
	// the Boundary reports with whole-corpus knowledge.
	es.FilterEntities(
		func(n *xmltree.Node) bool { return !l.spineSet[n.ID.String()] },
		func(h xseek.EntityHit) {
			out.Boundary = append(out.Boundary, &xseek.Result{Node: h.Node, Match: h.Match, Label: xseek.LabelFor(h.Node)})
		},
	)
	opts := xseek.SearchOptions{Limit: q.Limit, Accuracy: q.Accuracy}
	out.Top, out.Total, out.Stats, err = xseek.ConsumeRankedWAND(es, opts, sh.StreamScorer(q.Terms), sh.TermBounds(q.Terms), shared)
	if err != nil {
		return LegPage{}, err
	}
	return out, nil
}

func (l *localLeg) RankSubsetLeg(q LegQuery, subset []*xseek.Result) ([]*xseek.RankedResult, error) {
	return l.sh.get().RankPage(subset, q.Query, xseek.SearchOptions{Limit: q.Limit}), nil
}

func (l *localLeg) TFUnderLeg(probes []TFProbe) ([]int, error) {
	idx := l.sh.get().Index()
	out := make([]int, len(probes))
	for i, p := range probes {
		out[i] = index.CountUnder(idx.Lookup(p.Term), p.ID)
	}
	return out, nil
}
