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
	// RankedLeg runs the score-bounded ranked leg in exact mode,
	// returning the leg's own top q.Limit in rank order plus its kept
	// SLCAs, boundary reports and full entity-result count. It stops
	// scoring at the cutoff but always drains the stream: the spine
	// fix-up needs every kept SLCA and boundary report, and a leg's
	// block-max bounds cannot bound a spine-rooted entity whose score
	// sums across legs.
	// shared is the fan-out's monotone-max threshold; a remote leg
	// forwards a snapshot of it as its score floor and raises it with
	// the leg's final threshold on return.
	RankedLeg(q LegQuery, shared *xseek.SharedThreshold) (LegPage, error)
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
	// Total is the leg's full entity-result count, Boundary excluded.
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

// stream is the front half both leg calls share: compile → SLCA →
// spine filter → entity stream over the group's engine. As the stream
// is pulled, the kept (non-spine) SLCAs are appended to *slcas for the
// spine fix-up and spine-rooted entities to *boundary. A nil stream
// with a nil error means a keyword is missing from this group: no SLCA
// can fall inside it, while other groups (or the spine) still answer.
func (l *localLeg) stream(query string, slcas *[]dewey.ID, boundary *[]*xseek.Result) (*xseek.Engine, *xseek.EntityStream, error) {
	sh := l.sh.get()
	cq, err := sh.Compile(query)
	if err != nil {
		var noMatch *index.NoMatchError
		if errors.As(err, &noMatch) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	it, err := cq.SLCAIter()
	if err != nil {
		return nil, nil, err
	}
	// Drop cross-segment artifacts (spine-owned SLCAs) before entity
	// mapping, collecting the survivors for the spine fix-up.
	filtered := slca.FilterTee(it,
		func(id dewey.ID) bool { return !l.spineSet[id.String()] },
		func(id dewey.ID) { *slcas = append(*slcas, id) },
	)
	es := xseek.NewEntityStream(filtered, l.root, l.schema)
	// A group-internal SLCA can still lift to a spine-rooted entity
	// (the partition split that entity's subtree). Such entities leave
	// the stream before scoring and counting: the leg's index sees only
	// its own groups' matches, so its score for a cross-group entity
	// would be partial, and another leg may emit the same entity. The
	// fan-out re-derives both from the Boundary reports with
	// whole-corpus knowledge.
	es.FilterEntities(
		func(n *xmltree.Node) bool { return !l.spineSet[n.ID.String()] },
		func(h xseek.EntityHit) {
			*boundary = append(*boundary, &xseek.Result{Node: h.Node, Match: h.Match, Label: xseek.LabelFor(h.Node)})
		},
	)
	return sh, es, nil
}

func (l *localLeg) SearchLeg(q LegQuery) (LegDocs, error) {
	var out LegDocs
	_, es, err := l.stream(q.Query, &out.SLCAs, &out.Boundary)
	if es == nil {
		return LegDocs{}, err
	}
	if out.Results, err = xseek.Drain(xseek.NewResultStream(es)); err != nil {
		return LegDocs{}, err
	}
	return out, nil
}

func (l *localLeg) RankedLeg(q LegQuery, shared *xseek.SharedThreshold) (LegPage, error) {
	var out LegPage
	sh, es, err := l.stream(q.Query, &out.SLCAs, &out.Boundary)
	if es == nil {
		return LegPage{}, err
	}
	opts := xseek.SearchOptions{Limit: q.Limit}
	out.Top, out.Total, out.Stats, err = xseek.ConsumeRankedWAND(es, opts, sh.StreamScorer(q.Terms), sh.TermBounds(q.Terms), shared)
	if err != nil {
		return LegPage{}, err
	}
	return out, nil
}

func (l *localLeg) TFUnderLeg(probes []TFProbe) ([]int, error) {
	idx := l.sh.get().Index()
	out := make([]int, len(probes))
	for i, p := range probes {
		out[i] = index.CountUnder(idx.Lookup(p.Term), p.ID)
	}
	return out, nil
}
