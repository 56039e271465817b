package xmltree

import (
	"sort"
	"strings"

	"repro/internal/dewey"
)

// Kind discriminates the node variants stored in a tree.
type Kind int

const (
	// Element is an XML element node; Tag holds its local name.
	Element Kind = iota
	// Text is a character-data node; Text holds the (trimmed) content.
	Text
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case Element:
		return "element"
	case Text:
		return "text"
	default:
		return "unknown"
	}
}

// Node is one node of a DOM-style XML tree. Nodes are created through
// NewElement/NewText or Parse and wired with AppendChild; fields are
// exported for read access, but mutate the tree only through the
// methods so parent pointers and Dewey IDs stay consistent.
type Node struct {
	Kind Kind
	// Tag is the element name (Kind == Element only).
	Tag string
	// Text is the character data (Kind == Text only).
	Text string
	// Attrs holds XML attributes of an element in document order.
	Attrs []Attr

	Parent   *Node
	Children []*Node

	// ID is the node's Dewey label, assigned by AssignIDs (Parse does
	// this automatically). The root has the empty ID.
	ID dewey.ID
}

// Attr is a single XML attribute.
type Attr struct {
	Name  string
	Value string
}

// NewElement returns a fresh element node with the given tag.
func NewElement(tag string) *Node { return &Node{Kind: Element, Tag: tag} }

// NewText returns a fresh text node with the given content.
func NewText(text string) *Node { return &Node{Kind: Text, Text: text} }

// AppendChild appends c to n's children and sets c.Parent. It returns
// n so element construction chains. The caller must re-run AssignIDs
// if Dewey labels are needed after structural edits.
func (n *Node) AppendChild(c *Node) *Node {
	c.Parent = n
	n.Children = append(n.Children, c)
	return n
}

// AppendText is shorthand for appending a text child.
func (n *Node) AppendText(text string) *Node {
	return n.AppendChild(NewText(text))
}

// Elem creates a child element with the given tag, appends it, and
// returns the child (not n), which makes nested construction natural.
func (n *Node) Elem(tag string) *Node {
	c := NewElement(tag)
	n.AppendChild(c)
	return c
}

// Leaf creates a child element with the given tag whose only child is
// a text node with the given value. It returns n for chaining.
func (n *Node) Leaf(tag, value string) *Node {
	c := NewElement(tag)
	c.AppendText(value)
	n.AppendChild(c)
	return n
}

// SetAttr sets (or replaces) an attribute on an element.
func (n *Node) SetAttr(name, value string) *Node {
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs[i].Value = value
			return n
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
	return n
}

// Attr returns the value of the named attribute and whether it is set.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// IsElement reports whether n is an element node.
func (n *Node) IsElement() bool { return n != nil && n.Kind == Element }

// IsText reports whether n is a text node.
func (n *Node) IsText() bool { return n != nil && n.Kind == Text }

// IsLeafElement reports whether n is an element whose children are all
// text nodes (or that has no children). Leaf elements carry values and
// map to attributes in the entity model.
func (n *Node) IsLeafElement() bool {
	if !n.IsElement() {
		return false
	}
	for _, c := range n.Children {
		if c.Kind != Text {
			return false
		}
	}
	return true
}

// Value returns the concatenated text content of n's direct text
// children, trimmed. For a Text node it returns the text itself.
func (n *Node) Value() string {
	if n == nil {
		return ""
	}
	if n.Kind == Text {
		return strings.TrimSpace(n.Text)
	}
	// A leaf's one text child is returned as a substring of the tree's
	// own text, with no copy; only several text children are joined.
	var single string
	var b strings.Builder
	seen := 0
	for _, c := range n.Children {
		if c.Kind != Text {
			continue
		}
		t := strings.TrimSpace(c.Text)
		if seen++; seen == 1 {
			single = t
			continue
		}
		if seen == 2 {
			b.WriteString(single)
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(t)
	}
	if seen <= 1 {
		return single
	}
	return b.String()
}

// DeepValue returns all text content in n's subtree, in document order,
// joined by single spaces.
func (n *Node) DeepValue() string {
	var parts []string
	n.Walk(func(m *Node) bool {
		if m.Kind == Text {
			if t := strings.TrimSpace(m.Text); t != "" {
				parts = append(parts, t)
			}
		}
		return true
	})
	return strings.Join(parts, " ")
}

// ChildElements returns n's element children (skipping text nodes).
func (n *Node) ChildElements() []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind == Element {
			out = append(out, c)
		}
	}
	return out
}

// FirstChildElement returns the first child element with the given tag,
// or nil.
func (n *Node) FirstChildElement(tag string) *Node {
	for _, c := range n.Children {
		if c.Kind == Element && c.Tag == tag {
			return c
		}
	}
	return nil
}

// FindAll returns, in document order, every element in n's subtree
// (including n) whose tag equals tag.
func (n *Node) FindAll(tag string) []*Node {
	var out []*Node
	n.Walk(func(m *Node) bool {
		if m.Kind == Element && m.Tag == tag {
			out = append(out, m)
		}
		return true
	})
	return out
}

// Walk visits n and every descendant in document (pre-)order. If fn
// returns false for a node, that node's subtree is not descended into.
func (n *Node) Walk(fn func(*Node) bool) {
	if n == nil {
		return
	}
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// AssignIDs assigns Dewey IDs to n's subtree, treating n as the node
// with label base. Text nodes receive labels too (they are children in
// the ordinal numbering), which keeps keyword postings addressable.
func (n *Node) AssignIDs(base dewey.ID) {
	n.ID = base
	for i, c := range n.Children {
		c.AssignIDs(base.Child(i))
	}
}

// NodeAt resolves a Dewey ID relative to n (n has the empty relative
// path). It returns nil if the path walks off the tree.
//
// On trees whose ordinals are contiguous, ordinal = child position and
// the walk is pure indexing. A live tree can carry ordinal holes after
// removals (ordinals are never reused); there the positional candidate
// carries a different ID and a binary search over the ordinal-sorted
// children resolves the step instead.
func (n *Node) NodeAt(id dewey.ID) *Node {
	cur := n
	for _, ord := range id {
		if cur = cur.ChildAt(ord); cur == nil {
			return nil
		}
	}
	return cur
}

// ChildAt returns the child carrying Dewey ordinal ord, or nil: the
// positional candidate when its ID agrees, with a binary search over
// the ordinal-sorted children for trees with ordinal holes. A
// positional candidate without an assigned ID is trusted as-is
// (ID-less trees have no holes to account for).
func (n *Node) ChildAt(ord int) *Node {
	cs := n.Children
	if uint(ord) < uint(len(cs)) {
		if c := cs[ord]; len(c.ID) == 0 || c.ID[len(c.ID)-1] == ord {
			return c
		}
	}
	k := sort.Search(len(cs), func(i int) bool {
		cid := cs[i].ID
		return len(cid) > 0 && cid[len(cid)-1] >= ord
	})
	if k < len(cs) {
		if cid := cs[k].ID; len(cid) > 0 && cid[len(cid)-1] == ord {
			return cs[k]
		}
	}
	return nil
}

// Depth returns the number of ancestors of n (root = 0), computed via
// parent pointers.
func (n *Node) Depth() int {
	d := 0
	for p := n.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

// Root returns the root of the tree containing n.
func (n *Node) Root() *Node {
	cur := n
	for cur.Parent != nil {
		cur = cur.Parent
	}
	return cur
}

// Path returns the tag path from the root to n, e.g. "products/product/name".
// Text nodes contribute "#text".
func (n *Node) Path() string {
	var tags []string
	for cur := n; cur != nil; cur = cur.Parent {
		if cur.Kind == Element {
			tags = append(tags, cur.Tag)
		} else {
			tags = append(tags, "#text")
		}
	}
	// reverse
	for i, j := 0, len(tags)-1; i < j; i, j = i+1, j-1 {
		tags[i], tags[j] = tags[j], tags[i]
	}
	return strings.Join(tags, "/")
}

// CountNodes returns the number of nodes in n's subtree (including n).
func (n *Node) CountNodes() int {
	count := 0
	n.Walk(func(*Node) bool { count++; return true })
	return count
}

// Clone returns a deep copy of n's subtree. The copy's Parent is nil
// and Dewey IDs are copied verbatim (re-run AssignIDs if the copy is
// grafted elsewhere).
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	out := &Node{
		Kind: n.Kind,
		Tag:  n.Tag,
		Text: n.Text,
		ID:   n.ID.Clone(),
	}
	if len(n.Attrs) > 0 {
		out.Attrs = make([]Attr, len(n.Attrs))
		copy(out.Attrs, n.Attrs)
	}
	for _, c := range n.Children {
		out.AppendChild(c.Clone())
	}
	return out
}
