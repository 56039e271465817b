package feature

import (
	"encoding/gob"
	"fmt"
	"io"
)

// gobStats is the wire form of Stats: plain maps, no ordering caches
// (they are recomputed on load, keeping freeze the single source of
// ordering truth).
type gobStats struct {
	Label      string
	GroupCount map[string]int
	Occ        map[Type]map[string]int
}

// Save writes the statistics with encoding/gob. Extraction over a
// product with hundreds of reviews is the most expensive step of the
// interactive pipeline, so callers serving repeat comparisons can
// cache Stats alongside the corpus.
func (s *Stats) Save(w io.Writer) error {
	occ := make(map[Type]map[string]int, len(s.byType))
	for t, ts := range s.byType {
		occ[t] = ts.occ
	}
	g := gobStats{Label: s.Label, GroupCount: s.groupCount, Occ: occ}
	if err := gob.NewEncoder(w).Encode(&g); err != nil {
		return fmt.Errorf("feature: save stats: %w", err)
	}
	return nil
}

// LoadStats reads statistics written by Save and rebuilds the
// significance orderings.
func LoadStats(r io.Reader) (*Stats, error) {
	var g gobStats
	if err := gob.NewDecoder(r).Decode(&g); err != nil {
		return nil, fmt.Errorf("feature: load stats: %w", err)
	}
	s := &Stats{
		Label:      g.Label,
		groupCount: g.GroupCount,
		byType:     make(map[Type]*typeStats, len(g.Occ)),
	}
	if s.groupCount == nil {
		s.groupCount = make(map[string]int)
	}
	for t, vals := range g.Occ {
		ts := &typeStats{occ: vals}
		for _, c := range vals {
			ts.total += c
		}
		s.byType[t] = ts
	}
	s.freeze()
	return s, nil
}
