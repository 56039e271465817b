package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/xmltree"
)

// v4FuzzBases returns the v4 snapshots FuzzLoadV4 mutates, all over
// liveCorpusXML(4): every committed v4 fixture (retired layouts), plus
// a never-written and a journaled snapshot in the current layout, so
// a current postings payload is among the seeds too.
func v4FuzzBases(f *testing.F) [][]byte {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "*.snap"))
	if err != nil {
		f.Fatal(err)
	}
	var bases [][]byte
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		if bytes.HasPrefix(data, []byte("XSACTSNAP 4\n")) {
			bases = append(bases, data)
		}
	}
	if len(bases) < 4 {
		f.Fatalf("found %d committed v4 fixtures, want at least 4", len(bases))
	}
	meta := Meta{CorpusName: "shop", Seed: 7}
	bases = append(bases, v4SnapshotOf(f, engine.New(xmltree.MustParseString(liveCorpusXML(4))), meta))
	written := engine.New(xmltree.MustParseString(liveCorpusXML(4)))
	mustWrite(f, written, "<product><name>fresh</name><kind>solar</kind></product>", 1)
	return append(bases, v4SnapshotOf(f, written, meta))
}

// FuzzLoadV4 replaces one section of a v4 snapshot with arbitrary
// bytes, re-framed with a valid CRC, so the head gob, the symbol
// table, the schema, the journal and index.OpenCompact each see
// malformed input. Load must return an error or an engine, and never
// panic. No query runs: a postings region that passed its CRC is
// trusted, and a malformed one panics on first touch by design.
func FuzzLoadV4(f *testing.F) {
	bases := v4FuzzBases(f)
	for i, base := range bases {
		nl := bytes.IndexByte(base, '\n')
		secs, err := parseV4Sections(base[nl+1:])
		if err != nil {
			f.Fatal(err)
		}
		for j, s := range secs {
			f.Add(uint8(i), uint8(j), s.Data)
			if len(s.Data) > 0 {
				f.Add(uint8(i), uint8(j), flipped(s.Data, len(s.Data)/2))
			}
		}
	}
	f.Fuzz(func(t *testing.T, base, sec uint8, payload []byte) {
		snap := bases[int(base)%len(bases)]
		secs, err := parseV4Sections(snap[bytes.IndexByte(snap, '\n')+1:])
		if err != nil {
			t.Fatal(err)
		}
		// Section sec is the n-th of its kind; withSection re-frames it.
		j, n := int(sec)%len(secs), 0
		for _, s := range secs[:j] {
			if s.Kind == secs[j].Kind {
				n++
			}
		}
		snap = withSection(t, snap, secs[j].Kind, n, payload)
		eng, _, err := Load(bytes.NewReader(snap), xmltree.MustParseString(liveCorpusXML(4)), engine.Config{})
		if err == nil && eng == nil {
			t.Fatal("Load returned neither an engine nor an error")
		}
	})
}
