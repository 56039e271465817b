package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/shard"
	"repro/internal/xmltree"
)

// legacyShardFixture is a v4 snapshot an older build wrote over a
// sharded base: a 'F' frequency section and one 'P' section per shard
// (testdata/README.md). Nothing writes the layout any more; Load reads
// it into one index.
type legacyShardFixture struct {
	file   string
	shards int
	// written: the fixture embeds its base ('X') and journals the v3
	// fixtures' add and remove ('J').
	written bool
}

var legacyShardFixtures = []legacyShardFixture{
	{"v4_k3.snap", 3, false},
	{"live_v4_k2.snap", 2, true},
}

func (fx legacyShardFixture) read(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", fx.file))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("XSACTSNAP 4\n")) || sectionCount(data, secPost) != fx.shards || sectionCount(data, secFreqs) != 1 {
		t.Fatalf("%s is not a %d-shard v4 snapshot", fx.file, fx.shards)
	}
	return data
}

// reference is a cold one-index engine after the fixture's writes.
func (fx legacyShardFixture) reference(t *testing.T) *engine.Engine {
	t.Helper()
	ref := engine.New(xmltree.MustParseString(liveCorpusXML(4)))
	if fx.written {
		mustWrite(t, ref, "<product><name>fresh</name><kind>solar</kind></product>", 1)
	}
	return ref
}

// queries are keywords every entity state of the fixture matches.
func (fx legacyShardFixture) queries() []string {
	q := []string{"gps", "radio", "item2", "item0 gps", "product"}
	if fx.written {
		q = append(q, "fresh", "solar")
	}
	return q
}

// checkLegacyLoad asserts a loaded legacy snapshot serves one index
// and answers like the cold reference: ranked pages, totals, scores,
// index statistics and epoch.
func checkLegacyLoad(t *testing.T, what string, ref, loaded *engine.Engine, queries ...string) {
	t.Helper()
	if got, want := rankedFingerprint(t, loaded, queries...), rankedFingerprint(t, ref, queries...); got != want {
		t.Fatalf("%s diverges from a cold one-index engine:\n%s\nvs\n%s", what, got, want)
	}
	if loaded.Epoch() != ref.Epoch() {
		t.Fatalf("%s: epoch %d, want %d", what, loaded.Epoch(), ref.Epoch())
	}
	if m := loaded.Metrics(); m.Shards != 1 {
		t.Fatalf("%s: metrics report %d shards, want 1", what, m.Shards)
	}
}

// TestShardedRoundTrip: a legacy multi-shard snapshot loads into one
// index that answers like a cold engine over the same corpus and
// writes, and its re-save is in the current one-index layout and
// round-trips again.
func TestShardedRoundTrip(t *testing.T) {
	for _, fx := range legacyShardFixtures {
		ref := fx.reference(t)
		loaded, meta, err := Load(bytes.NewReader(fx.read(t)), xmltree.MustParseString(liveCorpusXML(4)), engine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !meta.Rebuilt || loaded.Index() == nil {
			t.Fatalf("%s: meta.Rebuilt = %v, index %v", fx.file, meta.Rebuilt, loaded.Index())
		}
		if loaded.CorpusEmbedded() != fx.written {
			t.Fatalf("%s: corpus embedded = %v, want %v", fx.file, loaded.CorpusEmbedded(), fx.written)
		}
		checkLegacyLoad(t, fx.file, ref, loaded, fx.queries()...)

		resave := v4SnapshotOf(t, loaded, Meta{CorpusName: "shop", Seed: 7})
		again, meta, err := Load(bytes.NewReader(resave), xmltree.MustParseString(liveCorpusXML(4)), engine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if meta.Rebuilt {
			t.Fatalf("%s re-saved: rebuilt instead of opened", fx.file)
		}
		checkLegacyLoad(t, fx.file+" re-saved", ref, again, fx.queries()...)
	}
}

// withSection returns a copy of snap whose n-th section of the given
// kind carries payload instead, under a freshly computed CRC — targeted
// damage that gets past the checksum to the checks behind it.
func withSection(t *testing.T, snap []byte, kind byte, n int, payload []byte) []byte {
	t.Helper()
	off, size := v4Span(t, snap, kind, n)
	var out bytes.Buffer
	out.Write(snap[:off-9])
	if err := writeV4Section(&out, kind, payload); err != nil {
		t.Fatal(err)
	}
	out.Write(snap[off+size+4:])
	return out.Bytes()
}

// TestShardedSingleShardCorruption: bytes flipped in exactly one
// shard's postings of a legacy snapshot must not fail the load: the
// shard sections are never decoded, so the one index built over the
// verified tree answers exactly, journal replayed.
func TestShardedSingleShardCorruption(t *testing.T) {
	for _, fx := range legacyShardFixtures {
		snap := fx.read(t)
		off, size := v4Span(t, snap, secPost, 1)
		loaded, _, err := Load(bytes.NewReader(flipped(flipped(snap, off), off+size/2)), xmltree.MustParseString(liveCorpusXML(4)), engine.Config{})
		if err != nil {
			t.Fatalf("%s: single-shard corruption failed the load: %v", fx.file, err)
		}
		checkLegacyLoad(t, fx.file, fx.reference(t), loaded, fx.queries()...)
	}
}

// TestShardedHeadCorruption: a legacy snapshot's head is still
// verified, so a flipped bit there fails the whole load (the caller
// rebuilds); its frequency section is never decoded, so damage there
// does not.
func TestShardedHeadCorruption(t *testing.T) {
	fx := legacyShardFixtures[0]
	snap := fx.read(t)
	off, _ := v4Span(t, snap, secHead, 0)
	if _, _, err := Load(bytes.NewReader(flipped(snap, off)), xmltree.MustParseString(liveCorpusXML(4)), engine.Config{}); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("head corruption: err = %v, want checksum mismatch", err)
	}
	off, _ = v4Span(t, snap, secFreqs, 0)
	loaded, _, err := Load(bytes.NewReader(flipped(snap, off)), xmltree.MustParseString(liveCorpusXML(4)), engine.Config{})
	if err != nil {
		t.Fatalf("frequency-section corruption: %v", err)
	}
	checkLegacyLoad(t, fx.file, fx.reference(t), loaded, fx.queries()...)
}

// TestShardedWrongCorpus: a legacy sharded snapshot of one corpus must
// be rejected for a different tree.
func TestShardedWrongCorpus(t *testing.T) {
	other := xmltree.MustParseString(liveCorpusXML(4))
	other.Children[0].Tag = "mutated"
	if _, _, err := Load(bytes.NewReader(legacyShardFixtures[0].read(t)), other, engine.Config{}); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("err = %v, want fingerprint mismatch", err)
	}
}

// TestV4LegacyShardSectionsNeverDecoded: every shard-layout section of
// a legacy snapshot — each 'P' and the 'F' table — may be damaged at
// once without touching the load, since the one index is built from
// the fingerprinted tree, not read back from them.
func TestV4LegacyShardSectionsNeverDecoded(t *testing.T) {
	fx := legacyShardFixtures[0]
	snap := fx.read(t)
	for g := 0; g < fx.shards; g++ {
		off, size := v4Span(t, snap, secPost, g)
		snap = flipped(snap, off+size/2)
	}
	off, size := v4Span(t, snap, secFreqs, 0)
	snap = flipped(snap, off+size/2)
	loaded, _, err := Load(bytes.NewReader(snap), xmltree.MustParseString(liveCorpusXML(4)), engine.Config{})
	if err != nil {
		t.Fatalf("damaged shard sections failed the load: %v", err)
	}
	checkLegacyLoad(t, fx.file, fx.reference(t), loaded, fx.queries()...)
}

// TestV4SaveOfShardedBaseLoadsOneIndex: an engine served through
// engine.FromSharded holds one index from construction, so Save stores
// that index as is, and the reload answers like an engine built over
// the tree directly.
func TestV4SaveOfShardedBaseLoadsOneIndex(t *testing.T) {
	root := testRoot()
	snap := v4SnapshotOf(t, engine.FromSharded(shard.Build(root, 3), engine.Config{}), Meta{CorpusName: "reviews", Seed: 11})
	if p, f := sectionCount(snap, secPost), sectionCount(snap, secFreqs); p != 1 || f != 0 {
		t.Fatalf("snapshot carries %d postings and %d frequency sections, want 1 and 0", p, f)
	}
	loaded, _, err := Load(bytes.NewReader(snap), testRoot(), engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rankedFingerprint(t, loaded, v4Queries...), rankedFingerprint(t, engine.New(root), v4Queries...); got != want {
		t.Fatalf("reload diverges from a one-index engine:\n%s\nvs\n%s", got, want)
	}
}
