package reference

import (
	"fmt"
	"sort"

	"repro/internal/dewey"
	"repro/internal/xmltree"
)

// Hit is one entity-mapped search result before labelling: the result
// entity and the SLCA that produced it.
type Hit struct {
	Node  *xmltree.Node
	Match *xmltree.Node
}

// Entities is the eager entity map: each SLCA in ids is resolved
// against root and lifted to nearest(match), or kept as-is when nearest
// returns nil; SLCAs lifting to the same entity merge, the first in
// input order staying the witness; the survivors come back in document
// order. Callers pass the schema's NearestEntity as nearest. An ID
// absent from the tree is an error.
func Entities(root *xmltree.Node, ids []dewey.ID, nearest func(*xmltree.Node) *xmltree.Node) ([]Hit, error) {
	var out []Hit
	seen := make(map[string]bool)
	for _, id := range ids {
		match := root.NodeAt(id)
		if match == nil {
			return nil, fmt.Errorf("reference: SLCA %v not in tree", id)
		}
		ent := nearest(match)
		if ent == nil {
			ent = match
		}
		if key := ent.ID.String(); !seen[key] {
			seen[key] = true
			out = append(out, Hit{Node: ent, Match: match})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node.ID.Compare(out[j].Node.ID) < 0 })
	return out, nil
}
