package dewey

import (
	"fmt"
	"strconv"
	"strings"
)

// ID is a Dewey label: the child-ordinal path from the root to a node.
// The zero value (nil) is the root. IDs must be treated as immutable;
// all methods return fresh slices where mutation would otherwise leak.
type ID []int

// Root returns the Dewey ID of the root node (the empty path).
func Root() ID { return ID{} }

// New returns an ID with the given components. The slice is copied.
func New(components ...int) ID {
	id := make(ID, len(components))
	copy(id, components)
	return id
}

// Child returns the ID of the ord-th child (0-based) of id.
func (id ID) Child(ord int) ID {
	child := make(ID, len(id)+1)
	copy(child, id)
	child[len(id)] = ord
	return child
}

// Parent returns the ID of the parent node and true, or nil and false if
// id is the root.
func (id ID) Parent() (ID, bool) {
	if len(id) == 0 {
		return nil, false
	}
	parent := make(ID, len(id)-1)
	copy(parent, id[:len(id)-1])
	return parent, true
}

// Level returns the depth of the node; the root has level 0.
func (id ID) Level() int { return len(id) }

// Clone returns an independent copy of id.
func (id ID) Clone() ID {
	out := make(ID, len(id))
	copy(out, id)
	return out
}

// Compare orders IDs in document order (preorder). It returns a negative
// number if id precedes other, zero if they label the same node, and a
// positive number otherwise. An ancestor precedes its descendants.
func (id ID) Compare(other ID) int {
	n := len(id)
	if len(other) < n {
		n = len(other)
	}
	for i := 0; i < n; i++ {
		if id[i] != other[i] {
			if id[i] < other[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(id) < len(other):
		return -1
	case len(id) > len(other):
		return 1
	default:
		return 0
	}
}

// Equal reports whether the two IDs label the same node.
func (id ID) Equal(other ID) bool { return id.Compare(other) == 0 }

// IsAncestorOf reports whether id is a proper ancestor of other.
func (id ID) IsAncestorOf(other ID) bool {
	if len(id) >= len(other) {
		return false
	}
	for i := range id {
		if id[i] != other[i] {
			return false
		}
	}
	return true
}

// IsAncestorOrSelf reports whether id is other or an ancestor of other.
func (id ID) IsAncestorOrSelf(other ID) bool {
	return id.Equal(other) || id.IsAncestorOf(other)
}

// LCA returns the Dewey ID of the lowest common ancestor of id and other.
func (id ID) LCA(other ID) ID {
	n := len(id)
	if len(other) < n {
		n = len(other)
	}
	i := 0
	for i < n && id[i] == other[i] {
		i++
	}
	out := make(ID, i)
	copy(out, id[:i])
	return out
}

// PrefixLCA is LCA without the copy: the result is a capacity-pinned
// subslice of id's backing array. It is safe to retain and to append
// to (the pinned capacity forces append to reallocate), but callers
// must not write its components in place. The SLCA hot loops use it to
// fold candidates without allocating per comparison.
func (id ID) PrefixLCA(other ID) ID {
	n := len(id)
	if len(other) < n {
		n = len(other)
	}
	i := 0
	for i < n && id[i] == other[i] {
		i++
	}
	return id[:i:i]
}

// String renders the ID in dotted form, e.g. "0.2.1". The root renders
// as "/".
func (id ID) String() string {
	var buf [32]byte
	return string(id.AppendTo(buf[:0]))
}

// AppendTo appends the String form of the ID to b and returns the
// extended slice, so a key holding IDs is built in one buffer.
func (id ID) AppendTo(b []byte) []byte {
	if len(id) == 0 {
		return append(b, '/')
	}
	for i, c := range id {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendInt(b, int64(c), 10)
	}
	return b
}

// Parse parses the dotted form produced by String. It accepts "/" (or
// the empty string) for the root.
func Parse(s string) (ID, error) {
	if s == "/" || s == "" {
		return Root(), nil
	}
	// Walk the components in place: IDs cross the shard wire by the
	// thousand per query, so no per-ID []string.
	id := make(ID, strings.Count(s, ".")+1)
	rest := s
	for i := range id {
		p := rest
		if j := strings.IndexByte(rest, '.'); j >= 0 {
			p, rest = rest[:j], rest[j+1:]
		}
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("dewey: parse %q: component %d: %w", s, i, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("dewey: parse %q: negative component %d", s, i)
		}
		id[i] = v
	}
	return id, nil
}

// CommonPrefixLen returns the length of the longest common prefix of
// the two IDs, which is also the level of their LCA.
func CommonPrefixLen(a, b ID) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// SortIDs is a helper ordering for slices of IDs in document order.
// It reports whether a sorts before b.
func SortIDs(a, b ID) bool { return a.Compare(b) < 0 }
