package update

import (
	"fmt"
	"sort"

	"repro/internal/dewey"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// Doc is the document side of a live corpus: the live tree over its
// base tree, the top-level entities by Dewey ordinal, the schema, and
// the journal of writes since the base. It is the one place that knows
// how a write changes them. The in-process Engine embeds it under its
// index side, and the distributed coordinator and every shard leg keep
// one each, so a write leaves the same tree, ordinals and schema on
// every replica.
//
// A Doc value is immutable: Add and Remove return its successor, and
// readers may keep any value. Successors share one writer-side cache
// of per-child schema evidence with their predecessor, so one lineage
// of writes must be applied by one writer at a time. The cache is only
// a cache: discarding a successor leaves it correct, since missing
// evidence is recollected and unused entries are never read.
type Doc struct {
	// baseRoot is the tree at the last compaction (contiguous
	// ordinals). root is a copy-on-write clone of it whose children are
	// exactly the live top-level subtrees (added entities appended,
	// removed ones absent). Subtrees below the root are shared and
	// immutable.
	baseRoot *xmltree.Node
	root     *xmltree.Node
	schema   *xseek.Schema
	top      []topEntry
	// nextOrd is the Dewey ordinal the next added entity receives.
	// Ordinals of removed entities are never reused, so existing
	// postings stay unambiguous until compaction renumbers.
	nextOrd int
	// tagCounts tallies the live element children per tag — the root's
	// sibling-count evidence for the incremental schema fold.
	tagCounts map[string]int
	journal   []JournalOp // writes since the base, in application order

	// evidence caches each top-level child's schema contribution.
	// Writer-only; shared along one lineage of writes.
	evidence map[*xmltree.Node]*xseek.Evidence
}

// topEntry locates one live top-level element child by its Dewey
// ordinal. Ordinals are never reused, so after removals the sequence
// may have holes; lookups binary-search it.
type topEntry struct {
	ord  int
	node *xmltree.Node
}

// NewDoc returns the clean document over a base tree and its schema:
// no pending writes, the next ordinal after the root's last child.
func NewDoc(root *xmltree.Node, schema *xseek.Schema) Doc {
	return newDoc(root, schema, make(map[*xmltree.Node]*xseek.Evidence))
}

func newDoc(root *xmltree.Node, schema *xseek.Schema, evidence map[*xmltree.Node]*xseek.Evidence) Doc {
	d := Doc{baseRoot: root, root: root, schema: schema, nextOrd: len(root.Children), evidence: evidence}
	// On a clean base tree child positions equal Dewey ordinals
	// (AssignIDs numbers text children too).
	d.top = make([]topEntry, 0, len(root.Children))
	d.tagCounts = make(map[string]int, 4)
	for i, c := range root.Children {
		if c.Kind == xmltree.Element {
			d.top = append(d.top, topEntry{ord: i, node: c})
			d.tagCounts[c.Tag]++
		}
	}
	return d
}

// Root returns the live tree.
func (d *Doc) Root() *xmltree.Node { return d.root }

// BaseRoot returns the tree at the last compaction.
func (d *Doc) BaseRoot() *xmltree.Node { return d.baseRoot }

// Schema returns the live schema, equal to a cold inference over Root.
func (d *Doc) Schema() *xseek.Schema { return d.schema }

// NextOrd returns the ordinal the next added entity receives.
func (d *Doc) NextOrd() int { return d.nextOrd }

// Journal returns the writes since the base, in application order.
// The slice is shared: callers must not modify it.
func (d *Doc) Journal() []JournalOp { return d.journal }

// HasRemove reports whether a removal is pending since the base — the
// condition under which a compaction renumbers.
func (d *Doc) HasRemove() bool {
	for _, op := range d.journal {
		if op.Remove {
			return true
		}
	}
	return false
}

// Entity returns the live top-level entity with Dewey ordinal ord, or
// nil.
func (d *Doc) Entity(ord int) *xmltree.Node {
	if i, ok := d.find(ord); ok {
		return d.top[i].node
	}
	return nil
}

func (d *Doc) find(ord int) (int, bool) {
	i := sort.Search(len(d.top), func(k int) bool { return d.top[k].ord >= ord })
	return i, i < len(d.top) && d.top[i].ord == ord
}

// Add appends the element subtree n as a new top-level entity: it
// labels n with the next ordinal (n.ID), wires it under a fresh root
// clone, folds its schema evidence in and journals its serialized
// fragment. The document takes ownership of n.
func (d *Doc) Add(n *xmltree.Node) (Doc, error) {
	if n == nil || n.Kind != xmltree.Element {
		return Doc{}, fmt.Errorf("update: an added entity must be an element subtree")
	}
	ord := d.nextOrd
	n.AssignIDs(dewey.New(ord))
	// Serialize for the journal before wiring the node in, so the
	// fragment round-trips standalone.
	fragment := xmltree.XMLString(n)

	nd := *d
	nd.root = rootWith(d.root, nil, n)
	n.Parent = nd.root
	nd.top = append(d.top[:len(d.top):len(d.top)], topEntry{ord: ord, node: n})
	nd.nextOrd = ord + 1
	nd.tagCounts = copyCounts(d.tagCounts)
	nd.tagCounts[n.Tag]++
	ev := xseek.CollectEvidence(n, d.root.Tag)
	d.evidence[n] = ev
	nd.schema = d.schema.WithChildEvidence(ev, d.root.Tag, n.Tag, nd.tagCounts[n.Tag])
	nd.journal = append(d.journal[:len(d.journal):len(d.journal)], JournalOp{XML: fragment, Ord: ord})
	return nd, nil
}

// Remove drops the live top-level entity with ordinal ord and returns
// the successor together with the removed subtree. The schema is
// recomposed from the cached evidence: removal can lower sibling maxima
// and instance tallies in ways a fold cannot express.
func (d *Doc) Remove(ord int) (Doc, *xmltree.Node, error) {
	i, ok := d.find(ord)
	if !ok {
		return Doc{}, nil, fmt.Errorf("update: no live top-level entity %d", ord)
	}
	victim := d.top[i].node

	nd := *d
	nd.root = rootWith(d.root, victim, nil)
	nd.top = make([]topEntry, 0, len(d.top)-1)
	nd.top = append(append(nd.top, d.top[:i]...), d.top[i+1:]...)
	nd.tagCounts = copyCounts(d.tagCounts)
	if nd.tagCounts[victim.Tag]--; nd.tagCounts[victim.Tag] == 0 {
		delete(nd.tagCounts, victim.Tag)
	}
	delete(d.evidence, victim)
	children := make([]*xmltree.Node, len(nd.top))
	for k, t := range nd.top {
		children[k] = t.node
	}
	nd.schema = xseek.ComposeSchema(nd.root, children, d.childEvidence)
	nd.journal = append(d.journal[:len(d.journal):len(d.journal)], JournalOp{Remove: true, Ord: ord})
	return nd, victim, nil
}

func (d *Doc) childEvidence(c *xmltree.Node) *xseek.Evidence {
	if ev := d.evidence[c]; ev != nil {
		return ev
	}
	ev := xseek.CollectEvidence(c, d.root.Tag)
	d.evidence[c] = ev
	return ev
}

// Compact returns the clean document a compaction installs: over the
// live tree itself when only adds are pending, or over a fresh,
// compactly renumbered deep copy of it when a removal left ordinal
// holes. The old tree stays untouched for in-flight readers. The schema
// carries over as is: it is a summary of tag paths, which renumbering
// leaves alone. So does the evidence cache, unless the tree was
// renumbered: cached evidence keyed by the old nodes no longer
// describes a renumbered tree.
func (d *Doc) Compact() Doc {
	if !d.HasRemove() {
		return newDoc(d.root, d.schema, d.evidence)
	}
	return NewDoc(rebuildTree(d.root), d.schema)
}

// rootWith returns a copy-on-write clone of root whose children are
// root's minus `without` (when non-nil) plus `extra` appended (when
// non-nil). The clone is what makes reads lock-free: concurrent readers
// keep walking the old root while the new state exposes the new one,
// and the shared child subtrees are immutable either way.
func rootWith(root *xmltree.Node, without, extra *xmltree.Node) *xmltree.Node {
	nr := &xmltree.Node{Kind: root.Kind, Tag: root.Tag, Text: root.Text, ID: root.ID}
	if len(root.Attrs) > 0 {
		nr.Attrs = make([]xmltree.Attr, len(root.Attrs))
		copy(nr.Attrs, root.Attrs)
	}
	n := len(root.Children)
	if extra != nil {
		n++
	}
	nr.Children = make([]*xmltree.Node, 0, n)
	for _, c := range root.Children {
		if c != without {
			nr.Children = append(nr.Children, c)
		}
	}
	if extra != nil {
		nr.Children = append(nr.Children, extra)
	}
	return nr
}

// rebuildTree deep-clones the live document into a fresh, compactly
// renumbered tree, leaving the old one untouched for in-flight readers.
func rebuildTree(root *xmltree.Node) *xmltree.Node {
	fresh := &xmltree.Node{Kind: root.Kind, Tag: root.Tag, Text: root.Text}
	if len(root.Attrs) > 0 {
		fresh.Attrs = make([]xmltree.Attr, len(root.Attrs))
		copy(fresh.Attrs, root.Attrs)
	}
	for _, c := range root.Children {
		fresh.AppendChild(c.Clone())
	}
	fresh.AssignIDs(nil)
	return fresh
}

func copyCounts(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for t, n := range m {
		out[t] = n
	}
	return out
}
