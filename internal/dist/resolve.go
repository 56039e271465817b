package dist

import (
	"fmt"

	"repro/internal/dewey"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// resolveHit reconstructs a Result from its wire form against a
// tree replica.
func resolveHit(root *xmltree.Node, h WireHit) (*xseek.Result, error) {
	id, err := parseID(h.ID)
	if err != nil {
		return nil, err
	}
	mid, err := parseID(h.Match)
	if err != nil {
		return nil, err
	}
	// Resolution fails closed: a wire ID that does not name a live node
	// is an error, never a misattributed result.
	node, match := root.NodeAt(id), root.NodeAt(mid)
	if node == nil || match == nil {
		return nil, fmt.Errorf("dist: hit %s/%s names no node in the tree replica", h.ID, h.Match)
	}
	return &xseek.Result{Node: node, Match: match, Label: h.Label}, nil
}

// parseID parses a canonical Dewey string off the wire.
func parseID(s string) (dewey.ID, error) {
	id, err := dewey.Parse(s)
	if err != nil {
		return nil, fmt.Errorf("dist: bad wire ID %q: %w", s, err)
	}
	return id, nil
}
