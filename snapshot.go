package xsact

import (
	"io"
	"strings"

	"repro/internal/engine"
	"repro/internal/persist"
	"repro/internal/xmltree"
)

// SaveSnapshot writes the document's derived state — inverted index,
// inferred schema, and corpus metadata — so a later process can reopen
// the same XML with LoadSnapshot and skip index construction and
// schema inference entirely. The snapshot is in the compact sectioned
// layout: symbol table plus varint-compressed postings in checksummed
// sections, which persist.LoadFile can mmap and serve without
// materializing the postings. A document with live updates also
// stores its base document and the journal of pending writes, replayed
// on load. A document served by a shard cluster (FromCluster) cannot
// be saved here: its legs persist through their own group snapshots.
func (d *Document) SaveSnapshot(w io.Writer) error {
	return persist.Save(w, d.eng, persist.Meta{})
}

// LoadSnapshot parses the XML document and attaches a snapshot written
// by SaveSnapshot over the same XML. It fails when the snapshot is
// corrupt or in a retired layout that holds no writes; callers should
// fall back to Parse, which rebuilds. A snapshot of a never-written
// document is additionally rejected when it was taken from a different
// document (corpus fingerprint check). A live snapshot instead carries its own base
// document — the caller's XML cannot know about applied writes — so
// its identity rests on the snapshot's internal checksums and
// fingerprint, the xml argument is superseded, and the returned
// Document resumes with every pending write intact; its next
// SaveSnapshot carries the base document again.
func LoadSnapshot(xml, snapshot io.Reader) (*Document, error) {
	root, err := xmltree.Parse(xml)
	if err != nil {
		return nil, err
	}
	eng, _, err := persist.Load(snapshot, root, engine.Config{})
	if err != nil {
		return nil, err
	}
	return &Document{root: eng.Root(), eng: eng}, nil
}

// LoadSnapshotString is LoadSnapshot over an in-memory document.
func LoadSnapshotString(xml string, snapshot io.Reader) (*Document, error) {
	return LoadSnapshot(strings.NewReader(xml), snapshot)
}
